// Archive GC equivalence harness (DESIGN.md §6).
//
// The collector is a host-side optimization: for ANY
// gc_interval_barriers setting, results, modelled times, and every
// communication statistic must be bit-identical to the archive-everything
// run — the flattened chains replay the exact coalescing, wire sizes,
// lazy-diffing charges, and word deliveries of the records they replace.
// This suite sweeps the conformance catalogue over gc ∈ {0, 1, 4} at 3, 4
// and 8 processors (so GC stripes of unequal size and eight concurrent
// stripes are covered), drives a targeted base-plus-tail fault, and checks
// that the live archive stays bounded instead of scaling with barrier
// count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "test_matrix.h"

namespace dsm::apps {
namespace {

RuntimeConfig GcConfig(const AggPoint& agg, int num_procs, int gc_interval) {
  RuntimeConfig cfg;
  cfg.num_procs = num_procs;
  cfg.aggregation = agg.mode;
  cfg.pages_per_unit = agg.ppu;
  cfg.gc_interval_barriers = gc_interval;
  return cfg;
}

class GcEquivalenceTest
    : public ::testing::TestWithParam<ConformanceScenario> {};

TEST_P(GcEquivalenceTest, CollectedRunsMatchArchiveEverything) {
  const ConformanceScenario& s = GetParam();
  // Every node collects its own stripe of units (u % num_procs == id), so
  // every app also runs at 3 processors (stripes of unequal size) and at 8
  // (eight concurrent stripes).
  for (const int nprocs : {s.num_procs, 3, 8}) {
    for (const AggPoint& agg : kAggs) {
      AppRun baseline;  // gc off
      for (int gc : {0, 1, 4}) {
        const std::string where = s.app + " @ " + agg.label + " p" +
                                  std::to_string(nprocs) +
                                  " gc=" + std::to_string(gc);
        auto app = MakeApp(s.app, s.dataset);
        const AppRun run = Execute(*app, GcConfig(agg, nprocs, gc));
        if (gc == 0) {
          baseline = run;
          continue;
        }
        EXPECT_EQ(run.result, baseline.result) << where;
        // The lock apps' statistics follow the host's grant order; for
        // every other app GC must be perfectly invisible.
        if (s.modelled_stable) {
          EXPECT_EQ(ModelledStateDiff(run.stats, baseline.stats), "")
              << where;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, GcEquivalenceTest,
    ::testing::ValuesIn(ConformanceScenarios()),
    [](const ::testing::TestParamInfo<ConformanceScenario>& info) {
      std::string name = info.param.app;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// --- targeted base-plus-tail fault ------------------------------------------
//
// Proc 0 rewrites a unit every epoch for many barriers while proc 1 never
// touches it, so proc 1's pending chain spans the whole history; proc 2
// writes disjoint words late (the live tail).  With GC on, the old epochs
// are flattened into the canonical base and reclaimed long before proc 1
// finally reads — the fault must resolve from base + tail to exactly the
// bytes (and exactly the stats) of the archive-everything run.
struct LateReaderOutcome {
  std::vector<int> values;
  RunStats stats;
  std::uint64_t reclaimed = 0;
  std::uint64_t live_intervals_peak = 0;
};

LateReaderOutcome RunLateReader(int gc_interval) {
  RuntimeConfig cfg;
  cfg.num_procs = 4;
  cfg.heap_bytes = 1u << 20;
  cfg.gc_interval_barriers = gc_interval;
  constexpr int kEpochs = 12;
  constexpr std::size_t kWords = 16;

  Runtime rt(cfg);
  auto data = rt.Alloc<int>(1024, "data");
  LateReaderOutcome out;
  std::mutex mu;
  rt.Run([&](Proc& p) {
    for (int e = 0; e < kEpochs; ++e) {
      if (p.id() == 0) {
        // Overlapping rewrites: only the newest value may survive.
        for (std::size_t i = 0; i < kWords; ++i) {
          p.Write(data, i, 1000 * (e + 1) + static_cast<int>(i));
        }
      }
      if (p.id() == 2 && e >= kEpochs - 2) {
        // Live tail: recent epochs, disjoint words.
        for (std::size_t i = 0; i < kWords; ++i) {
          p.Write(data, 64 + i, 7000 + 10 * e + static_cast<int>(i));
        }
      }
      p.Barrier();
    }
    if (p.id() == 1) {
      // First and only access: the fault walks the full covered history.
      std::vector<int> got;
      for (std::size_t i = 0; i < kWords; ++i) got.push_back(p.Read(data, i));
      for (std::size_t i = 0; i < kWords; ++i) {
        got.push_back(p.Read(data, 64 + i));
      }
      std::lock_guard lock(mu);
      out.values = std::move(got);
    }
    p.Barrier();
  });
  out.stats = rt.CollectStats();
  out.reclaimed = out.stats.mem.reclaimed_intervals;
  out.live_intervals_peak = out.stats.mem.peak_live_intervals;
  return out;
}

TEST(GcBasePlusTail, LateFaultMatchesFullHistoryBitForBit) {
  const LateReaderOutcome off = RunLateReader(0);
  const LateReaderOutcome on = RunLateReader(1);

  // Procs 1 and 3 never touch the unit, so they stay virgins: the GC
  // builds their history once in the virgin store and credits the second
  // virgin's chains as shared.
  EXPECT_GT(on.stats.mem.chains_built, 0u);
  EXPECT_GT(on.stats.mem.chains_shared, 0u);

  // GC actually ran and reclaimed the old epochs out from under the
  // pending chain.
  EXPECT_EQ(off.reclaimed, 0u);
  EXPECT_GT(on.reclaimed, 0u);
  EXPECT_LT(on.live_intervals_peak, off.live_intervals_peak);

  // The late reader saw the newest value of every word.
  ASSERT_EQ(on.values.size(), 32u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(on.values[i], 12000 + static_cast<int>(i)) << "word " << i;
    EXPECT_EQ(on.values[16 + i], 7110 + static_cast<int>(i))
        << "tail word " << i;
  }
  EXPECT_EQ(off.values, on.values);

  // And paid exactly the modelled costs of the full-history resolution.
  EXPECT_EQ(ModelledStateDiff(on.stats, off.stats), "") << "late reader";
}

// --- lazy-diffing stamps outlive their records --------------------------------
//
// Procs 1, 2 and 3 fault on proc 0's unit once, early, so each holds the
// rest of its history in chains of its own, not in the virgin store.
// Once the GC has flattened that history into each node's chains and
// pruned the records, procs 1 and 2 fault in the same phase and proc 3 in
// the next.  The first-requester-pays stamp of each reclaimed diff is one
// stamp for all three nodes, as the record's was: both same-phase
// requesters pay the twin scan and the later one does not.  A chain that
// held a copy of its own would charge proc 3 again.
RunStats RunStampSharers(int gc_interval) {
  RuntimeConfig cfg;
  cfg.num_procs = 4;
  cfg.heap_bytes = 1u << 20;
  cfg.gc_interval_barriers = gc_interval;
  constexpr int kEpochs = 6;
  constexpr std::size_t kWords = 8;

  Runtime rt(cfg);
  auto data = rt.Alloc<int>(1024, "data");
  rt.Run([&](Proc& p) {
    for (int e = 0; e < kEpochs; ++e) {
      if (p.id() == 0) {
        for (std::size_t i = 0; i < kWords; ++i) {
          p.Write(data, i, 100 * (e + 1) + static_cast<int>(i));
        }
      }
      p.Barrier();
      if (e == 0 && p.id() != 0) (void)p.Read(data, 0);  // become a sharer
    }
    // Idle barriers: the GC flattens the last writing epoch and prunes it.
    for (int i = 0; i < 3; ++i) p.Barrier();
    if (p.id() == 1 || p.id() == 2) (void)p.Read(data, 0);
    p.Barrier();
    if (p.id() == 3) (void)p.Read(data, 0);
    p.Barrier();
  });
  return rt.CollectStats();
}

TEST(GcStamps, SameAndLaterPhaseRequestersMatchArchiveEverything) {
  const RunStats off = RunStampSharers(0);
  const RunStats on = RunStampSharers(1);
  EXPECT_EQ(off.mem.reclaimed_intervals, 0u);
  EXPECT_GT(on.mem.reclaimed_intervals, 0u);
  EXPECT_GE(on.mem.chains_built, 3u);  // one chain per sharer at least
  EXPECT_EQ(ModelledStateDiff(on, off), "") << "stamp sharers";
}

// --- virgin store: chain headers live only on sharers ------------------------
//
// One writer rewrites a unit for many epochs while the rest of the
// cluster never touches it.  The per-unit sharer directory must keep
// every never-faulting processor on the single shared virgin image
// (DESIGN.md §8): chain bodies built are a property of the write history
// and must not move when the cluster grows, while the shared-header
// count grows with the virgin population.  And the whole mechanism stays
// modelled-invisible at the scaled size.
struct VirginOutcome {
  std::vector<int> values;
  RunStats stats;
};

VirginOutcome RunVirgin(int nprocs, int gc_interval) {
  RuntimeConfig cfg;
  cfg.num_procs = nprocs;
  cfg.heap_bytes = 1u << 20;
  cfg.gc_interval_barriers = gc_interval;
  constexpr int kEpochs = 10;
  constexpr std::size_t kWords = 16;

  Runtime rt(cfg);
  auto data = rt.Alloc<int>(1024, "data");
  VirginOutcome out;
  std::mutex mu;
  rt.Run([&](Proc& p) {
    for (int e = 0; e < kEpochs; ++e) {
      if (p.id() == 0) {
        for (std::size_t i = 0; i < kWords; ++i) {
          p.Write(data, i, 100 * (e + 1) + static_cast<int>(i));
        }
      }
      p.Barrier();
    }
    // Proc 1 faults only after the last collection: during every GC pass
    // all processors but the writer are virgin.
    if (p.id() == 1) {
      std::vector<int> got;
      for (std::size_t i = 0; i < kWords; ++i) got.push_back(p.Read(data, i));
      std::lock_guard lock(mu);
      out.values = std::move(got);
    }
    p.Barrier();
  });
  out.stats = rt.CollectStats();
  return out;
}

TEST(GcVirginStore, ChainHeadersStayOffNonSharers) {
  const VirginOutcome off = RunVirgin(16, 0);
  const VirginOutcome small = RunVirgin(4, 1);
  const VirginOutcome big = RunVirgin(16, 1);

  // The late reader saw the final epoch, and GC stayed bit-invisible at
  // the scaled cluster size.
  ASSERT_EQ(big.values.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(big.values[i], 1000 + static_cast<int>(i)) << "word " << i;
  }
  EXPECT_EQ(big.values, off.values);
  EXPECT_EQ(ModelledStateDiff(big.stats, off.stats), "") << "virgin 16p";

  // Chain bodies track the write history, not the cluster: the 12 extra
  // never-faulting processors ride the shared virgin image instead of
  // getting per-node headers (the old per-node residual would make this
  // scale linearly in nprocs).
  EXPECT_GT(small.stats.mem.chains_built, 0u);
  EXPECT_EQ(big.stats.mem.chains_built, small.stats.mem.chains_built);
  // ...while each extra virgin consumer is accounted as a shared header.
  EXPECT_GT(big.stats.mem.chains_shared, small.stats.mem.chains_shared);
}

// Copy-on-write of chain bodies: a node adopts the virgin store's chains
// as header copies over the store's bodies, so a GC extension of either
// header must clone first, while a header that owns its body alone must
// extend in place.
TEST(GcChainBody, MutableBodyClonesSharedBodyAndExtendsSoleOwnerInPlace) {
  FlattenedChain original;
  original.writer = 1;
  original.body = std::make_shared<ChainBody>();
  original.body->runs = {{0, 2}};
  original.body->payload_words = 2;

  FlattenedChain copy = original;
  ASSERT_EQ(copy.body, original.body);
  ChainBody& extended = copy.MutableBody();
  extended.runs =
      Diff::MergeRuns(extended.runs, std::vector<DiffRun>{{5, 1}});
  extended.payload_words = Diff::RunWords(extended.runs);

  EXPECT_NE(copy.body, original.body);
  ASSERT_EQ(original.runs().size(), 1u);
  EXPECT_EQ(original.runs()[0].word_offset, 0u);
  EXPECT_EQ(original.runs()[0].word_count, 2u);
  EXPECT_EQ(original.payload_words(), 2u);
  EXPECT_EQ(copy.runs().size(), 2u);
  EXPECT_EQ(copy.payload_words(), 3u);

  // Each header now owns its body alone, so it extends in place.
  const ChainBody* own = original.body.get();
  EXPECT_EQ(&original.MutableBody(), own);
}

// --- blocked chains under false sharing -------------------------------------
//
// Procs 0 and 2 write disjoint words of ONE unit every epoch, so each
// writer's records are ordered after the other's previous ones: no chain
// can absorb the next epoch (the chains are `blocked`) and every reclaimed
// record becomes a one-member FlattenedChain — the MGS-16K shape.  Proc 1
// faults once early (so its history lives in its own chain headers, not
// the virgin store) and then stays away until the history is reclaimed.
// Each chain must carry exactly its epoch's run and stamp, read from a
// body of its own (the archive freed the record), and the late fault must
// still match the archive-everything run bit for bit.
struct FalseSharingOutcome {
  std::vector<int> values;
  RunStats stats;
  std::size_t chains = 0;
  std::size_t one_epoch = 0;  // one member: its epoch's single run and stamp
  std::size_t older = 0;      // chains that are not their writer's newest
  std::size_t older_blocked = 0;
};

FalseSharingOutcome RunFalseSharingReader(int gc_interval) {
  RuntimeConfig cfg;
  cfg.num_procs = 4;
  cfg.heap_bytes = 1u << 20;
  cfg.gc_interval_barriers = gc_interval;
  constexpr int kEpochs = 10;
  constexpr std::uint32_t kWords = 16;

  Runtime rt(cfg);
  auto data = rt.Alloc<int>(1024, "data");
  const UnitId unit = rt.heap().UnitOf(data.base());
  FalseSharingOutcome out;
  std::mutex mu;
  rt.Run([&](Proc& p) {
    for (int e = 0; e < kEpochs; ++e) {
      for (std::size_t i = 0; i < kWords; ++i) {
        if (p.id() == 0) p.Write(data, i, 100 * (e + 1) + static_cast<int>(i));
        if (p.id() == 2) {
          p.Write(data, kWords + i, 5000 + 100 * e + static_cast<int>(i));
        }
      }
      p.Barrier();
      if (e == 0 && p.id() == 1) (void)p.Read(data, 0);  // become a sharer
    }
    // Idle barriers: with the default two-barrier lag the pass at the
    // second flattens the last writing epoch, and every node's prune of
    // that pass finishes before anyone leaves the third.
    for (int i = 0; i < 3; ++i) p.Barrier();
    if (p.id() == 1) {
      FalseSharingOutcome seen;
      const std::vector<FlattenedChain>& flat =
          rt.shared().lrc.chains(p.id(), unit);
      for (std::size_t i = 0; i < flat.size(); ++i) {
        const FlattenedChain& c = flat[i];
        ++seen.chains;
        std::size_t members = 0;
        c.ForEachStamp([&](std::uint64_t&) { ++members; });
        const std::uint32_t first_word = c.writer == 0 ? 0 : kWords;
        const bool one_epoch =
            members == 1 && c.body->tail.proc == c.writer &&
            c.body->tail.seq == c.first_seq && c.runs().size() == 1 &&
            c.runs()[0].word_offset == first_word &&
            c.runs()[0].word_count == kWords && c.payload_words() == kWords;
        seen.one_epoch += one_epoch ? 1 : 0;
        const bool newest = std::none_of(
            flat.begin() + static_cast<std::ptrdiff_t>(i) + 1, flat.end(),
            [&](const FlattenedChain& d) { return d.writer == c.writer; });
        if (!newest) {
          ++seen.older;
          seen.older_blocked += c.blocked ? 1 : 0;
        }
      }
      std::vector<int> got;
      for (std::size_t i = 0; i < 2 * kWords; ++i) {
        got.push_back(p.Read(data, i));
      }
      std::lock_guard lock(mu);
      seen.values = std::move(got);
      out = std::move(seen);
    }
    p.Barrier();
  });
  out.stats = rt.CollectStats();
  return out;
}

TEST(GcFalseSharing, BlockedChainsKeepOneEpochEach) {
  const FalseSharingOutcome off = RunFalseSharingReader(0);
  const FalseSharingOutcome on = RunFalseSharingReader(1);

  EXPECT_EQ(off.chains, 0u);
  // One chain per writer-epoch after the reader's fault, each holding
  // exactly its epoch's 16-word run, and all but each writer's newest
  // blocked.
  EXPECT_GE(on.chains, 2u * 8u);
  EXPECT_EQ(on.one_epoch, on.chains);
  EXPECT_EQ(on.older, on.chains - 2);
  EXPECT_EQ(on.older_blocked, on.older);

  // The late fault, served from the canonical base, saw the newest values.
  ASSERT_EQ(on.values.size(), 32u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(on.values[i], 1000 + static_cast<int>(i)) << "word " << i;
    EXPECT_EQ(on.values[16 + i], 5900 + static_cast<int>(i)) << "word " << i;
  }
  EXPECT_EQ(on.values, off.values);
  EXPECT_EQ(ModelledStateDiff(on.stats, off.stats), "")
      << "false-shared late reader";
}

// --- lock-heavy sweeps -------------------------------------------------------
//
// Water and TSP synchronize through locks, whose grant order is host
// scheduled: their modelled state is not bit-reproducible under ANY
// setting (the stable apps' bit-identity is covered by GcEquivalenceTest
// above), so these sweeps assert the strongest portable properties —
// the exact result across gc ∈ {0, 1, 4}, archive memory bounded by
// collection, and the GC machinery actually engaging: flattened chains,
// some shared through the virgin store (DESIGN.md §6).
struct LockSweepOutcome {
  double result = 0;
  MemoryFootprint mem;
};

LockSweepOutcome RunLockApp(const char* app, const char* dataset,
                            int num_procs, int gc_interval) {
  RuntimeConfig cfg;
  cfg.num_procs = num_procs;
  cfg.gc_interval_barriers = gc_interval;
  auto a = MakeApp(app, dataset);
  const AppRun run = Execute(*a, cfg);
  return {run.result, run.stats.mem};
}

TEST(GcLockHeavy, WaterSweepRecoversMemory) {
  const LockSweepOutcome off = RunLockApp("Water", "512", 8, 0);
  EXPECT_EQ(off.mem.reclaimed_intervals, 0u);
  for (int gc : {1, 4}) {
    const LockSweepOutcome on = RunLockApp("Water", "512", 8, gc);
    const std::string where = "Water gc=" + std::to_string(gc);
    EXPECT_EQ(on.result, off.result) << where;
    // Collection actually ran; at every-barrier cadence it roughly
    // halves the peak archive (gc=4 fires too rarely within Water's
    // handful of barriers to dent the peak — it still reclaims).
    EXPECT_GT(on.mem.reclaimed_intervals, 0u) << where;
    EXPECT_LE(on.mem.peak_live_intervals, off.mem.peak_live_intervals)
        << where;
    if (gc == 1) {
      EXPECT_LT(on.mem.peak_live_intervals,
                off.mem.peak_live_intervals * 3 / 5)
          << where;
    }
    // The lock-heavy machinery engaged: chains were built, and some were
    // shared through the virgin store.
    EXPECT_GT(on.mem.chains_built, 0u) << where;
    EXPECT_GT(on.mem.chains_shared, 0u) << where;
  }
}

TEST(GcLockHeavy, TspSweepKeepsResultAndBoundsArchive) {
  const LockSweepOutcome off = RunLockApp("TSP", "tiny", 4, 0);
  for (int gc : {1, 4}) {
    const LockSweepOutcome on = RunLockApp("TSP", "tiny", 4, gc);
    const std::string where = "TSP gc=" + std::to_string(gc);
    // Branch-and-bound pruning races, but the best tour it converges to
    // does not.
    EXPECT_EQ(on.result, off.result) << where;
    // TSP's interval population follows host lock-grant order, so the
    // two runs' peaks carry a little scheduling noise each; under TSan's
    // timing distortion the raw <= comparison sat exactly on the margin
    // (observed 611 vs 610).  A 2% allowance keeps the real claim — GC
    // bounds the archive instead of letting it grow monotonically —
    // while tolerating grant-order jitter.
    EXPECT_LE(on.mem.peak_live_intervals,
              off.mem.peak_live_intervals + off.mem.peak_live_intervals / 50)
        << where;
  }
}

// --- HLRC: no archive, no GC -------------------------------------------------
//
// The home-based backend absorbs diffs at the homes and keeps only
// notice-metadata records, so the interval-archive GC must never engage:
// no passes, no canonical bases, no chains, no reclaim counts — even with
// collection nominally enabled and even for a lock-heavy mixed workload.
// Guards against the GC hooks firing on a backend that has no archive.
TEST(HlrcNoArchive, GcHooksStayOffForTheHomeBackend) {
  for (const char* app : {"Jacobi", "Fuzz"}) {
    for (int gc : {0, 1}) {
      RuntimeConfig cfg;
      cfg.num_procs = 4;
      cfg.backend = BackendKind::kHlrc;
      cfg.gc_interval_barriers = gc;
      auto a = MakeApp(app, "tiny");
      const AppRun run = Execute(*a, cfg);
      const std::string where =
          std::string(app) + " gc=" + std::to_string(gc);
      const MemoryFootprint& mem = run.stats.mem;
      EXPECT_EQ(mem.gc_passes, 0u) << where;
      EXPECT_EQ(mem.reclaimed_intervals, 0u) << where;
      EXPECT_EQ(mem.peak_live_intervals, 0u) << where;
      EXPECT_EQ(mem.peak_archive_bytes, 0u) << where;
      EXPECT_EQ(mem.canonical_base_peak_bytes, 0u) << where;
      EXPECT_EQ(mem.chains_built, 0u) << where;
      EXPECT_EQ(mem.chains_shared, 0u) << where;
      // The backend actually moved data through the homes.
      EXPECT_GT(run.stats.comm.home_flushes, 0u) << where;
      EXPECT_GT(run.stats.comm.home_fetches, 0u) << where;
    }
  }
}

// HLRC's memory story is the notice-log watermark prune, not the archive
// GC — so bound it directly: after many barrier epochs, each node's
// archive must hold only the last few notice records (everything every
// consumer has seen is pruned), not one per interval ever closed.  A
// broken prune (Homes::OnBarrier) is an unbounded host-memory leak that
// the telemetry counters (deliberately unhooked for HLRC) would never
// show.
TEST(HlrcNoArchive, NoticeLogIsWatermarkPruned) {
  RuntimeConfig cfg;
  cfg.num_procs = 4;
  cfg.backend = BackendKind::kHlrc;
  cfg.heap_bytes = 1u << 20;
  constexpr int kEpochs = 40;

  Runtime rt(cfg);
  auto data = rt.Alloc<int>(1024, "data");
  rt.Run([&](Proc& p) {
    for (int e = 0; e < kEpochs; ++e) {
      // Every proc closes a non-empty interval every epoch.
      p.Write(data, static_cast<std::size_t>(p.id()) * 64,
              e * 10 + p.id());
      p.Barrier();
      // And consumes the notices (reads a peer's word) so the watermark
      // advances.
      (void)p.Read(data,
                   static_cast<std::size_t>((p.id() + 1) % 4) * 64);
      p.Barrier();
    }
  });
  for (ProcId pr = 0; pr < cfg.num_procs; ++pr) {
    const IntervalArchive& a = *rt.shared().archives[pr];
    // One interval per epoch was closed; all but the last barrier-or-two
    // of them must be gone (the prune lags one barrier behind the
    // consumers' merges).
    EXPECT_LE(a.size(), 4u) << "proc " << pr;
    EXPECT_EQ(a.CountThrough(kEpochs / 2), 0u) << "proc " << pr;
  }
}

// The prune drops exactly what every peer has consumed.  Proc 0 holds
// lock 1 across barrier A, so proc 1's acquire of it after A waits for
// proc 0's release, which follows record r (closed by proc 0's release of
// lock 0): proc 1 consumes r before barrier B.  A third processor
// consumes r only when B releases it.  So B's prune drops r with two
// processors and keeps it with three, and C's prune drops it with both;
// a prune that keeps one record too many, or drops one too many, fails
// one of the two.
TEST(HlrcNoArchive, LogPrunesExactlyWhatEveryPeerConsumed) {
  for (int nprocs : {2, 3}) {
    RuntimeConfig cfg;
    cfg.num_procs = nprocs;
    cfg.backend = BackendKind::kHlrc;
    cfg.heap_bytes = 1u << 20;
    Runtime rt(cfg);
    auto data = rt.Alloc<int>(1024, "data");
    const IntervalArchive& log = *rt.shared().archives[0];
    std::size_t after_b = 0, after_c = 0;
    rt.Run([&](Proc& p) {
      if (p.id() == 0) p.Lock(1);
      p.Barrier();  // A
      if (p.id() == 0) {
        p.Lock(0);
        p.Write(data, 0, 1);
        p.Unlock(0);  // closes r
        p.Unlock(1);
      } else if (p.id() == 1) {
        p.Lock(1);  // consumes r
        p.Unlock(1);
      }
      p.Barrier();  // B
      if (p.id() == 0) after_b = log.size();
      p.Barrier();  // C
      if (p.id() == 0) after_c = log.size();
    });
    const std::string where = std::to_string(nprocs) + " procs";
    EXPECT_EQ(after_b, nprocs == 2 ? 0u : 1u) << where;
    EXPECT_EQ(after_c, 0u) << where;
  }
}

// --- bounded archive ---------------------------------------------------------
//
// MGS is the archive-growth worst case: every vector is rewritten at every
// step, so without GC the live archive scales with the barrier count.
// With GC on, the peak must be a small constant independent of it.
TEST(GcBoundedArchive, MgsPeakLiveIntervalsDoNotScaleWithBarriers) {
  auto run_mgs = [](int gc_interval) {
    RuntimeConfig cfg;
    cfg.num_procs = 4;
    cfg.gc_interval_barriers = gc_interval;
    auto app = MakeApp("MGS", "tiny");
    return Execute(*app, cfg).stats.mem;
  };
  const MemoryFootprint off = run_mgs(0);
  const MemoryFootprint on = run_mgs(1);

  // MGS "tiny" runs 32 vectors → 60+ barriers; without GC the archive
  // holds hundreds of live intervals at peak.
  EXPECT_GT(off.peak_live_intervals, 100u);
  EXPECT_EQ(off.reclaimed_intervals, 0u);
  // With GC the peak is bounded by interval × lag epochs of production —
  // far below the barrier count, not proportional to it.
  EXPECT_LT(on.peak_live_intervals, 32u);
  EXPECT_GT(on.gc_passes, 10u);
  EXPECT_GT(on.reclaimed_intervals, 100u);
  EXPECT_LT(on.peak_archive_bytes, off.peak_archive_bytes / 4);
}

// --- the footprint -----------------------------------------------------------
//
// Every GC pass applies every dominated record to its unit's canonical
// base, pending somewhere or not, and no base is ever released, so the
// bases are complete checkpoints in every run.  Here proc 0 writes one
// unit once and every peer reads it in the same epoch: no notice of the
// record is pending anywhere when the pass collects it (as in ILINK), and
// the base must still take it and count the unit.
TEST(GcFootprint, BaseCountsAUnitEveryReaderConsumed) {
  RuntimeConfig cfg;
  cfg.num_procs = 4;
  cfg.heap_bytes = 1u << 20;

  Runtime rt(cfg);
  auto data = rt.AllocUnitAligned<int>(1024, "data");
  std::atomic<int> read_sum{0};
  rt.Run([&](Proc& p) {
    if (p.id() == 0) p.Write(data, 0, 42);
    p.Barrier();  // 0: the record (proc 0, seq 1) is closed
    if (p.id() != 0) read_sum += p.Read(data, 0);
    p.Barrier();
    p.Barrier();  // 2: the pass (lag 2) collects through barrier 0
  });
  const MemoryFootprint mem = rt.CollectStats().mem;
  EXPECT_EQ(read_sum.load(), 3 * 42);
  EXPECT_EQ(mem.gc_passes, 1u);
  EXPECT_EQ(mem.reclaimed_intervals, 1u);
  EXPECT_EQ(mem.chains_built, 0u);  // nothing was pending
  EXPECT_EQ(mem.canonical_base_peak_bytes, cfg.unit_bytes());
}

// The archive peaks are the largest sum, over the barrier windows and the
// end of the run, of every archive's live records and retained bytes.
// Each of 4 procs rewrites one word of its own unit before each of 6
// barriers, then once more under a lock, so every record is one unit of
// one one-word run.  With gc 0 the archives keep all 28, which only the
// sample after the run sees.  With gc 1 (lag 2) the window of barrier
// b >= 2 holds each proc's records b - 1, b and b + 1: the pass before
// pruned through b - 2, and this one prunes through b - 1 after the
// window.  The end of the run holds 5, 6 and the lock's 7.
TEST(GcFootprint, ArchivePeaksAreWindowSums) {
  constexpr int kProcs = 4;
  constexpr int kBarriers = 6;
  // Notice bytes (16 + 8 per unit) plus the diff's wire size (a 16-byte
  // header, one 8-byte run descriptor and one word).
  constexpr std::uint64_t kRecordBytes = (16 + 8) + (16 + 8 + 4);
  for (int gc : {0, 1}) {
    RuntimeConfig cfg;
    cfg.num_procs = kProcs;
    cfg.heap_bytes = 1u << 20;
    cfg.gc_interval_barriers = gc;
    Runtime rt(cfg);
    auto data = rt.AllocUnitAligned<int>(kProcs * 1024, "data");
    rt.Run([&](Proc& p) {
      const std::size_t word = static_cast<std::size_t>(p.id()) * 1024;
      for (int b = 0; b < kBarriers; ++b) {
        p.Write(data, word, b + 1);
        p.Barrier();
      }
      p.Lock(p.id());
      p.Write(data, word, kBarriers + 1);
      p.Unlock(p.id());
    });
    const MemoryFootprint mem = rt.CollectStats().mem;
    const std::string where = "gc=" + std::to_string(gc);
    const std::uint64_t records = gc == 0 ? kProcs * (kBarriers + 1)
                                          : kProcs * 3;
    EXPECT_EQ(mem.peak_live_intervals, records) << where;
    EXPECT_EQ(mem.peak_archive_bytes, records * kRecordBytes) << where;
    EXPECT_EQ(mem.reclaimed_intervals, gc == 0 ? 0u : kProcs * 4u) << where;
  }
}

// --- HLRC value-identical rewrites ------------------------------------------
//
// An HLRC release diffs every dirty unit eagerly.  A unit whose writes all
// restored its twin's values yields an empty diff: the release counts the
// diff and pays the scan, but the home has nothing to absorb, so no flush
// message or bytes are modelled.  The writer rewrites unit 0 with the same
// values every epoch after the first, while one word of unit 1 really
// changes; neither unit is homed at the writer.
TEST(HlrcValueIdenticalRewrite, CountsDiffButModelsNoFlush) {
  RuntimeConfig cfg;
  cfg.num_procs = 4;
  cfg.backend = BackendKind::kHlrc;
  cfg.heap_bytes = 1u << 20;
  constexpr int kEpochs = 8;

  Runtime rt(cfg);
  auto data = rt.AllocUnitAligned<int>(2048, "data");  // two 4K units
  // Homes are unit-interleaved, so this writer homes neither unit and
  // every non-empty diff is a remote flush.
  const auto unit0 = static_cast<int>(data.base() / cfg.unit_bytes());
  const int writer = (unit0 + 2) % cfg.num_procs;
  const int reader = (unit0 + 3) % cfg.num_procs;
  std::vector<int> seen;
  std::mutex mu;
  rt.Run([&](Proc& p) {
    std::vector<int> got;
    for (int e = 0; e < kEpochs; ++e) {
      if (p.id() == writer) {
        // Unit 0: word 0 keeps its zero; words 1..7 change only in
        // epoch 0.
        for (std::size_t i = 0; i < 8; ++i) {
          p.Write(data, i, 7 * static_cast<int>(i));
        }
        // Unit 1: a word that changes in every epoch but the first.
        p.Write(data, 1024, e * 10);
      }
      p.Barrier();
      if (p.id() == reader) {
        got.push_back(p.Read(data, 3));
        got.push_back(p.Read(data, 1024));
      }
      p.Barrier();
    }
    if (p.id() == reader) {
      std::lock_guard lock(mu);
      seen = std::move(got);
    }
  });
  const RunStats stats = rt.CollectStats();

  ASSERT_EQ(seen.size(), 2u * kEpochs);
  for (int e = 0; e < kEpochs; ++e) {
    EXPECT_EQ(seen[2 * e], 21) << "epoch " << e;
    EXPECT_EQ(seen[2 * e + 1], e * 10) << "epoch " << e;
  }
  // Both units are diffed at every writer release.
  EXPECT_EQ(stats.comm.diffs_created, 2u * kEpochs);
  // Only non-empty diffs reach a home: unit 0 in epoch 0 (7 words),
  // unit 1 in epochs 1..7 (1 word each).  One home per release.
  EXPECT_EQ(stats.comm.home_flushes, 1u + (kEpochs - 1));
  EXPECT_EQ(stats.comm.home_flush_bytes, (7u + (kEpochs - 1)) * kWordBytes);
  EXPECT_EQ(stats.comm.home_flush_messages, 2u * kEpochs);
}

// --- recovery telemetry back-compat ------------------------------------------
//
// The crash-recovery counters (DESIGN.md §9) follow the zero-entry skip
// rule: on a run with no fault plan they stay zero and appear NOWHERE in
// the textual stats, so existing goldens, fingerprints, and parsers are
// untouched by the subsystem's existence.
TEST(GcTelemetry, NoFaultRunEmitsNoRecoveryCounters) {
  for (BackendKind backend : {BackendKind::kLrc, BackendKind::kHlrc}) {
    RuntimeConfig cfg;
    cfg.num_procs = 4;
    cfg.backend = backend;
    auto app = MakeApp("Jacobi", "tiny");
    const AppRun run = Execute(*app, cfg);
    const CommBreakdown& c = run.stats.comm;
    EXPECT_EQ(c.recoveries, 0u);
    EXPECT_EQ(c.recovery_messages, 0u);
    EXPECT_EQ(c.recovery_data_bytes, 0u);
    EXPECT_EQ(c.recovery_units, 0u);
    EXPECT_EQ(c.recovery_records, 0u);
    EXPECT_EQ(c.recovery_modelled_ns, 0u);
    EXPECT_EQ(run.stats.recovery_wall_ns, 0u);
    EXPECT_EQ(run.stats.ToString().find("recovery"), std::string::npos);
    EXPECT_EQ(c.ToString().find("recovery"), std::string::npos);
  }
}

}  // namespace
}  // namespace dsm::apps
