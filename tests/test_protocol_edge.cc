// Protocol edge cases: diff chains under lock ordering, coalescing
// correctness, invalidation of dirty units, range bounds, stats plumbing,
// and label / config helpers.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runtime.h"

namespace dsm {
namespace {

RuntimeConfig Config(int nprocs, int ppu = 1) {
  RuntimeConfig cfg;
  cfg.num_procs = nprocs;
  cfg.heap_bytes = 1u << 20;
  cfg.pages_per_unit = ppu;
  return cfg;
}

// Ordered, overlapping diffs through a lock chain: the LAST write in
// happens-before order must win at a third-party reader, even when the
// chain interleaves writers (coalescing must not reorder).
TEST(ProtocolEdge, InterleavedLockChainAppliesInOrder) {
  Runtime rt(Config(3));
  auto a = rt.Alloc<int>(16, "a");
  int seen = -1;
  rt.Run([&](Proc& p) {
    // p0 writes 1, p1 overwrites with 2, p0 overwrites with 3 — all under
    // the same lock, serialized by barriers to fix the order.
    if (p.id() == 0) {
      p.Lock(0);
      p.Write(a, 0, 1);
      p.Unlock(0);
    }
    p.Barrier();
    if (p.id() == 1) {
      p.Lock(0);
      p.Write(a, 0, 2);
      p.Unlock(0);
    }
    p.Barrier();
    if (p.id() == 0) {
      p.Lock(0);
      p.Write(a, 0, 3);
      p.Unlock(0);
    }
    p.Barrier();
    // p2 has seen none of the three intervals; its fetch must deliver the
    // p0(1), p1(2), p0(3) chain in happens-before order.
    if (p.id() == 2) seen = p.Read(a, 0);
  });
  EXPECT_EQ(seen, 3);
}

// Same-writer chain with a foreign interval strictly between: the merge
// guard must keep them separate and the final value correct.
TEST(ProtocolEdge, ForeignIntervalBetweenSameWriterChain) {
  Runtime rt(Config(3));
  auto a = rt.AllocUnitAligned<int>(1024, "page");
  int v0 = -1, v1 = -1;
  rt.Run([&](Proc& p) {
    if (p.id() == 0) p.Write(a, 0, 10);  // p0 interval 1: word 0
    p.Barrier();
    if (p.id() == 1) p.Write(a, 0, 20);  // p1 overwrites word 0 (ordered)
    p.Barrier();
    if (p.id() == 0) p.Write(a, 1, 30);  // p0 interval 2: word 1
    p.Barrier();
    if (p.id() == 2) {
      v0 = p.Read(a, 0);
      v1 = p.Read(a, 1);
    }
  });
  EXPECT_EQ(v0, 20);  // p1's ordered overwrite wins over p0's first write
  EXPECT_EQ(v1, 30);
}

// Apply order at scale, with the gather order reversed.  Eight procs share
// one 16 KB unit for kApplyEpochs barrier epochs.  Procs 1-7 each rewrite
// their own word every epoch (false sharing: every writer-epoch is its
// own chain), and a migratory word passes from proc 7 down to proc 1 and
// round again, so the writer-ascending order in which a fault gathers
// chains is the reverse of happens-before.  Proc 0 first touches the unit
// after the last epoch and fetches every chain at once, live (gc=0) or
// flattened (gc=1); it must read what the Reference backend reads.
constexpr int kApplyEpochs = 66;  // the last migratory writer is proc 5
constexpr std::size_t kUnitInts = 4096;  // one 16 KB unit
constexpr std::size_t kMigratoryWord = 1;

struct ApplyOrderRun {
  std::vector<int> seen;  // proc 0's final read of every word
  RunStats stats;
};

ApplyOrderRun RunReversedGather(BackendKind backend, int gc_interval) {
  RuntimeConfig cfg = Config(8, 4);
  cfg.backend = backend;
  cfg.gc_interval_barriers = gc_interval;
  Runtime rt(cfg);
  auto a = rt.AllocUnitAligned<int>(kUnitInts, "unit");
  ApplyOrderRun out;
  rt.Run([&](Proc& p) {
    for (int e = 0; e < kApplyEpochs; ++e) {
      if (p.id() != 0) {
        p.Write(a, static_cast<std::size_t>(p.id()) * 512, e * 100 + p.id());
      }
      if (p.id() == 7 - e % 7) p.Write(a, kMigratoryWord, e * 100 + 50);
      p.Barrier();
    }
    if (p.id() == 0) {
      out.seen.resize(kUnitInts);
      for (std::size_t i = 0; i < kUnitInts; ++i) out.seen[i] = p.Read(a, i);
    }
  });
  out.stats = rt.CollectStats();
  return out;
}

TEST(ProtocolEdge, ApplyOrderAtScaleWithReversedGather) {
  const ApplyOrderRun ref = RunReversedGather(BackendKind::kReference, 0);
  ASSERT_EQ(ref.seen.size(), kUnitInts);
  EXPECT_EQ(ref.seen[kMigratoryWord], (kApplyEpochs - 1) * 100 + 50);
  const ApplyOrderRun live = RunReversedGather(BackendKind::kLrc, 0);
  const ApplyOrderRun flat = RunReversedGather(BackendKind::kLrc, 1);
  EXPECT_EQ(live.seen, ref.seen);
  EXPECT_EQ(flat.seen, ref.seen);
  EXPECT_EQ(ModelledStateDiff(live.stats, flat.stats), "");
}

// A unit invalidated while locally dirty keeps local modifications after
// the fetch merges foreign diffs (diffs applied to copy AND twin).
TEST(ProtocolEdge, DirtyUnitSurvivesInvalidationAndMerge) {
  Runtime rt(Config(2));
  auto a = rt.AllocUnitAligned<int>(1024, "page");
  int mine = -1, theirs = -1, final0 = -1, final512 = -1;
  rt.Run([&](Proc& p) {
    if (p.id() == 0) {
      p.Lock(0);  // acquire before writing, release publishes
      p.Write(a, 0, 100);
      p.Unlock(0);
    } else {
      p.Lock(1);
      p.Write(a, 512, 200);
      p.Unlock(1);
    }
    p.Barrier();
    // Both keep writing their own halves (dirty), then re-sync.
    if (p.id() == 0) {
      mine = p.Read(a, 0);      // own word survived
      theirs = p.Read(a, 512);  // foreign word merged in
      p.Write(a, 1, 101);
    }
    p.Barrier();
    if (p.id() == 1) {
      final0 = p.Read(a, 0);
      final512 = p.Read(a, 512);
    }
  });
  EXPECT_EQ(mine, 100);
  EXPECT_EQ(theirs, 200);
  EXPECT_EQ(final0, 100);
  EXPECT_EQ(final512, 200);
}

// Multi-unit element access: a struct spanning two consistency units is
// read and written coherently.
TEST(ProtocolEdge, AccessSpanningUnits) {
  struct Big {
    int words[2048];  // 8 KB, spans two 4 KB units
  };
  Runtime rt(Config(2));
  auto a = rt.Alloc<Big>(2, "big");
  int lo = 0, hi = 0;
  rt.Run([&](Proc& p) {
    if (p.id() == 0) {
      Big b{};
      b.words[0] = 1;
      b.words[2047] = 2;
      p.Write(a, 1, b);  // element 1 starts mid-unit: definitely straddles
    }
    p.Barrier();
    if (p.id() == 1) {
      const Big b = p.Read(a, 1);
      lo = b.words[0];
      hi = b.words[2047];
    }
  });
  EXPECT_EQ(lo, 1);
  EXPECT_EQ(hi, 2);
}

// Range bounds are checked in every build type, without overflow, and an
// empty range touches nothing, not even the unit its address falls in.
TEST(ProtocolEdge, RangeEdges) {
  Runtime rt(Config(2));
  const std::size_t n = 1536;  // 1.5 units: the array ends mid-unit
  auto a = rt.AllocUnitAligned<int>(n, "a");
  std::vector<int> buf(n);
  CommBreakdown before, after_empty, after_read;
  VirtualNanos clock_before = 0, clock_after_empty = 0;
  rt.Run([&](Proc& p) {
    if (p.id() == 1) p.Write(a, n - 1, 7);
    p.Barrier();  // the array's last unit is now invalid at proc 0
    if (p.id() != 0) return;
    EXPECT_THROW(p.ReadRange(a, 1, std::span<int>(buf)), CheckError);
    EXPECT_THROW(p.WriteRange(a, n + 1, std::span<const int>()), CheckError);
    // first + 4 wraps around to 2, which a naive bound would accept.
    const std::size_t near_max = SIZE_MAX - 1;
    EXPECT_THROW(p.ReadRange(a, near_max, std::span<int>(buf.data(), 4)),
                 CheckError);
    EXPECT_THROW(p.WriteRange(a, near_max, std::span<const int>(buf.data(), 4)),
                 CheckError);

    before = p.node().comm_stats().counters();
    clock_before = p.now();
    p.ReadRange(a, n, std::span<int>());
    p.WriteRange(a, n, std::span<const int>());
    after_empty = p.node().comm_stats().counters();
    clock_after_empty = p.now();
    EXPECT_EQ(p.Read(a, n - 1), 7);  // the same unit does fault when read
    after_read = p.node().comm_stats().counters();
  });
  EXPECT_EQ(after_empty.read_faults, before.read_faults);
  EXPECT_EQ(after_empty.write_faults, before.write_faults);
  EXPECT_EQ(clock_after_empty, clock_before);
  EXPECT_EQ(after_read.read_faults, before.read_faults + 1);
}

TEST(ProtocolEdge, UnitLabels) {
  RuntimeConfig cfg;
  cfg.pages_per_unit = 1;
  EXPECT_STREQ(cfg.UnitLabel(), "4K");
  cfg.pages_per_unit = 2;
  EXPECT_STREQ(cfg.UnitLabel(), "8K");
  cfg.pages_per_unit = 4;
  EXPECT_STREQ(cfg.UnitLabel(), "16K");
  cfg.aggregation = AggregationMode::kDynamic;
  EXPECT_STREQ(cfg.UnitLabel(), "Dyn");
  EXPECT_EQ(cfg.unit_bytes(), kBasePageBytes);  // dynamic uses 4 K pages
}

TEST(ProtocolEdge, StatsToStringsAreNonEmpty) {
  Runtime rt(Config(2));
  auto a = rt.Alloc<int>(64, "a");
  rt.Run([&](Proc& p) {
    if (p.id() == 0) p.Write(a, 0, 1);
    p.Barrier();
    if (p.id() == 1) (void)p.Read(a, 0);
  });
  RunStats s = rt.CollectStats();
  EXPECT_FALSE(s.ToString().empty());
  EXPECT_FALSE(s.comm.ToString().empty());
  EXPECT_FALSE(s.net.ToString().empty());
}

// Deterministic replay, and an archive GC the model cannot see.  Besides
// the shared array every node rewrites, one writer per epoch updates a
// cold unit (its notices stay pending past the GC lag, so chains get
// built) and, under a lock that the barriers hand from one epoch's writer
// to the next, a unit nobody reads (its lock-release records reach every
// other node only as flattened chains).  The barriers fix the lock-grant
// order, so every GC setting must model exactly what gc=0 models.  Two
// runs of one setting also agree on the GC's host-side counters: each
// node's stripe walks its units and the nodes in a fixed order, the
// counters are sums, and the canonical-base peak is taken once per pass,
// so none of them depends on how the concurrent stripes interleave.
TEST(ProtocolEdge, DeterministicReplay) {
  auto run_once = [](int nprocs, int gc) {
    RuntimeConfig cfg = Config(nprocs, 2);
    cfg.gc_interval_barriers = gc;
    Runtime rt(cfg);
    auto a = rt.AllocUnitAligned<int>(8192, "a");
    auto cold = rt.AllocUnitAligned<int>(2048, "cold");      // one unit
    auto unread = rt.AllocUnitAligned<int>(2048, "unread");  // one unit
    rt.Run([&](Proc& p) {
      for (int it = 0; it < 4; ++it) {
        const bool turn = p.id() == it % p.nprocs();
        for (int i = p.id(); i < 8192; i += p.nprocs()) {
          p.Write(a, static_cast<std::size_t>(i), it + i);
        }
        if (turn) p.Write(cold, static_cast<std::size_t>(it), it + 1);
        p.Barrier();
        long sum = 0;
        for (int i = 0; i < 512; ++i) {
          sum += p.Read(a, static_cast<std::size_t>(i));
        }
        if (turn) {
          p.Lock(0);
          p.Write(unread, static_cast<std::size_t>(it), it + 1);
          p.Unlock(0);
        }
        p.Compute(static_cast<std::uint64_t>(sum % 7));
        p.Barrier();
      }
    });
    return rt.CollectStats();
  };
  for (int nprocs : {3, 4, 8}) {
    const RunStats off = run_once(nprocs, 0);
    for (int gc : {1, 4}) {
      const std::string where =
          std::to_string(nprocs) + "p gc=" + std::to_string(gc);
      const RunStats a = run_once(nprocs, gc);
      const RunStats b = run_once(nprocs, gc);
      EXPECT_EQ(ModelledStateDiff(a, off), "") << where;
      EXPECT_EQ(ModelledStateDiff(a, b), "") << where;
      EXPECT_GT(a.mem.gc_passes, 0u) << where;
      EXPECT_GT(a.mem.chains_built, 0u) << where;
      // At 3 procs every processor takes a turn on both one-unit arrays,
      // and the next writer has faulted on a unit before its
      // predecessor's record is collected, so one virgin is left and
      // nothing is shared.
      if (nprocs > 3) {
        EXPECT_GT(a.mem.chains_shared, 0u) << where;
      }
      EXPECT_EQ(a.mem.gc_passes, b.mem.gc_passes) << where;
      EXPECT_EQ(a.mem.reclaimed_intervals, b.mem.reclaimed_intervals)
          << where;
      EXPECT_EQ(a.mem.chains_built, b.mem.chains_built) << where;
      EXPECT_EQ(a.mem.chains_shared, b.mem.chains_shared) << where;
      EXPECT_GT(a.mem.canonical_base_peak_bytes, 0u) << where;
      EXPECT_EQ(a.mem.canonical_base_peak_bytes,
                b.mem.canonical_base_peak_bytes)
          << where;
    }
  }
}

// --- RuntimeConfig validation (fail-fast misuse diagnostics) -----------------
//
// The Runtime constructor validates its config before building any state;
// a malformed field surfaces as std::invalid_argument naming the field,
// never as a deep CHECK abort or a hang.

// Expects Runtime construction to throw and the message to mention `hint`.
void ExpectRejected(const RuntimeConfig& cfg, const std::string& hint) {
  try {
    Runtime rt(cfg);
    FAIL() << "config accepted; expected rejection mentioning '" << hint
           << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(hint), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(ConfigValidation, RejectsBadProcessorCounts) {
  RuntimeConfig cfg = Config(0);
  ExpectRejected(cfg, "num_procs");
  cfg = Config(5000);
  ExpectRejected(cfg, "num_procs");
  // One processor is degenerate and almost always a mis-filled config;
  // the sequential oracle opts in via allow_sequential.
  cfg = Config(1);
  ExpectRejected(cfg, "allow_sequential");
  cfg.allow_sequential = true;
  EXPECT_NO_THROW(Runtime rt(cfg));
}

TEST(ConfigValidation, RejectsBadHeapAndUnitShapes) {
  RuntimeConfig cfg = Config(2);
  cfg.heap_bytes = 0;
  ExpectRejected(cfg, "heap_bytes");

  cfg = Config(2);
  cfg.pages_per_unit = 3;  // not a power of two
  ExpectRejected(cfg, "pages_per_unit");
  cfg.pages_per_unit = 0;
  ExpectRejected(cfg, "pages_per_unit");

  cfg = Config(2);
  cfg.max_group_pages = 0;
  ExpectRejected(cfg, "max_group_pages");
}

TEST(ConfigValidation, RejectsBadServiceKnobs) {
  RuntimeConfig cfg = Config(2);
  cfg.gc_lag_barriers = 0;
  ExpectRejected(cfg, "gc_lag_barriers");

  cfg = Config(2);
  cfg.gc_interval_barriers = -1;
  ExpectRejected(cfg, "gc_interval_barriers");
}

TEST(ConfigValidation, RejectsMalformedFaultEvents) {
  // Victim 0 is legal: its barrier-manager / serial-GC / watermark roles
  // fail over to the lowest surviving rank for the crash barrier
  // (DESIGN.md §9).
  RuntimeConfig cfg = Config(4);
  cfg.fault.events = {{FaultPoint::kAtBarrier, 0, 1}};
  EXPECT_NO_THROW(Runtime rt(cfg));

  cfg = Config(4);
  cfg.fault.events = {{FaultPoint::kAtBarrier, 4, 1}};  // out of range
  ExpectRejected(cfg, "victim");

  // Victims are always concrete: a negative one is out of range too.
  cfg = Config(4);
  cfg.fault.events = {{FaultPoint::kAtBarrier, -1, 1}};
  ExpectRejected(cfg, "victim");

  cfg = Config(4);
  cfg.fault.events = {{FaultPoint::kAtBarrier, 1, -1}};
  ExpectRejected(cfg, "barrier");

  cfg = Config(4);
  cfg.fault.events = {{FaultPoint::kAfterRelease, 1, 0}};
  ExpectRejected(cfg, "release");

  // The reference oracle has no protocol state to crash and rebuild.
  cfg = Config(4);
  cfg.backend = BackendKind::kReference;
  cfg.fault.events = {{FaultPoint::kAtBarrier, 1, 1}};
  ExpectRejected(cfg, "reference");

  // LRC recovery needs the archive GC's canonical-base checkpoints.
  cfg = Config(4);
  cfg.gc_interval_barriers = 0;
  cfg.fault.events = {{FaultPoint::kAtBarrier, 1, 1}};
  ExpectRejected(cfg, "no checkpoint available");

  // A well-formed event on a protocol backend is accepted.
  cfg = Config(4);
  cfg.fault.events = {{FaultPoint::kAfterRelease, 1, 2}};
  EXPECT_NO_THROW(Runtime rt(cfg));
}

TEST(ConfigValidation, RejectsMalformedFaultSchedules) {
  // A victim dies at most once per trigger point.
  RuntimeConfig cfg = Config(4);
  cfg.fault.events = {{FaultPoint::kAtBarrier, 1, 2},
                      {FaultPoint::kAtBarrier, 1, 2}};
  ExpectRejected(cfg, "at most once");

  // A barrier phase must leave a survivor to run the coordinator roles.
  cfg = Config(2);
  cfg.fault.events = {{FaultPoint::kAtBarrier, 0, 1},
                      {FaultPoint::kAtBarrier, 1, 1}};
  ExpectRejected(cfg, "survive");

  // The same victim may die twice at distinct points — proc 0 included.
  cfg = Config(4);
  cfg.fault.events = {{FaultPoint::kAtBarrier, 0, 1},
                      {FaultPoint::kAtBarrier, 0, 3}};
  EXPECT_NO_THROW(Runtime rt(cfg));
}

// FaultSchedule::Parse checks the spec grammar and nothing else.
TEST(FaultSpecParse, RejectsMalformedSpecs) {
  for (const char* spec :
       {"", "barrier", "barrier:1", "barrier:@2", "barrier:1@", "barrier:1@2+",
        "+barrier:1@2", "crash:1@2", "barrier:x@2", "barrier:-1@2", "seed:",
        "seed:12x"}) {
    EXPECT_THROW(FaultSchedule::Parse(spec, 4), std::invalid_argument)
        << "spec '" << spec << "'";
  }
}

TEST(FaultSpecParse, LeavesRangeChecksToValidate) {
  // Well-formed specs with out-of-range numbers parse; Validate() rejects.
  RuntimeConfig cfg = Config(4);
  cfg.fault = FaultSchedule::Parse("barrier:9@1", 4);
  ASSERT_EQ(cfg.fault.events.size(), 1u);
  EXPECT_EQ(cfg.fault.events[0].victim, 9);
  ExpectRejected(cfg, "victim");

  cfg.fault = FaultSchedule::Parse("release:1@0", 4);
  ExpectRejected(cfg, "release");

  cfg.fault = FaultSchedule::Parse("barrier:1@2+barrier:1@2", 4);
  ExpectRejected(cfg, "at most once");
}

}  // namespace
}  // namespace dsm
