// Unit tests for the support substrates: RNG, histogram, virtual clock,
// cost model calibration, network model calibration, heap, page table,
// word tracker, vector clocks, interval archive, net stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "core/runtime.h"
#include "core/vector_clock.h"
#include "core/write_notice.h"
#include "mem/global_heap.h"
#include "mem/page_table.h"
#include "mem/word_tracker.h"
#include "net/net_stats.h"
#include "net/network_model.h"
#include "sim/cost_model.h"
#include "sim/virtual_clock.h"

namespace dsm {
namespace {

// --- common ---------------------------------------------------------------

TEST(Check, ThrowsWithMessage) {
  try {
    DSM_CHECK(1 == 2) << "context " << 42;
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformIntInBounds) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.UniformDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRangeCoversEndpoints) {
  Xoshiro256 rng(11);
  bool lo = false, hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.UniformRange(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    lo |= (v == 2);
    hi |= (v == 5);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Histogram, SplitCountsAndNormalization) {
  SplitHistogram h;
  h.AddUseful(1, 10);
  h.AddUseless(1, 5);
  h.AddUseful(7, 30);
  EXPECT_EQ(h.useful(1), 10u);
  EXPECT_EQ(h.useless(1), 5u);
  EXPECT_EQ(h.total(7), 30u);
  EXPECT_EQ(h.grand_total(), 45u);
  const auto norm = h.NormalizedTotals();
  EXPECT_DOUBLE_EQ(norm[7], 1.0);
  EXPECT_DOUBLE_EQ(norm[1], 0.5);
}

TEST(Histogram, MergeGrowsBuckets) {
  SplitHistogram a, b;
  a.AddUseful(1);
  b.AddUseless(5);
  a.Merge(b);
  EXPECT_EQ(a.useful(1), 1u);
  EXPECT_EQ(a.useless(5), 1u);
}

// --- sim --------------------------------------------------------------------

TEST(VirtualClock, AdvancesMonotonically) {
  VirtualClock c;
  c.Advance(100);
  c.AdvanceTo(50);  // no-op: never backwards
  EXPECT_EQ(c.now(), 100);
  c.AdvanceTo(200);
  EXPECT_EQ(c.now(), 200);
  EXPECT_THROW(c.Advance(-1), CheckError);
}

TEST(CostModel, DiffCostsScaleWithSize) {
  CostModel cost;
  EXPECT_GT(cost.DiffCreateCost(16384), cost.DiffCreateCost(4096));
  EXPECT_GT(cost.TwinCost(8192), cost.TwinCost(4096));
  EXPECT_EQ(cost.DiffApplyCost(0), cost.diff_apply_fixed);
}

// --- net: calibration to the paper's §5.1 platform numbers ------------------

TEST(NetworkModel, OneByteRoundTripIs296us) {
  NetworkConfig config;
  config.wire_header_bytes = 0;  // calibration excludes header framing
  NetworkModel net(config);
  EXPECT_EQ(net.RoundTripTime(1, 0), 296 * kNanosPerMicro - 2 * 80 + 80);
  // 2 × (147.92 µs + 1 B · 80 ns) ≈ 296 µs within one byte-time.
  EXPECT_NEAR(static_cast<double>(net.RoundTripTime(1, 1)),
              296.0 * kNanosPerMicro, 200.0);
}

TEST(NetworkModel, BandwidthIs100Mbps) {
  NetworkModel net;
  // Marginal cost of 12500 extra bytes = 1 ms at 12.5 MB/s.
  const VirtualNanos base = net.OneWayTime(0);
  const VirtualNanos loaded = net.OneWayTime(12500);
  EXPECT_EQ(loaded - base, 1 * kNanosPerMilli);
}

TEST(NetworkModel, DiffFetchInPaperBand) {
  // The paper: "time to obtain a diff varies from 579 to 1,746 µs".
  NetworkModel net;
  CostModel cost;
  const VirtualNanos full_page_diff =
      net.RoundTripTime(24, 4096 + 64) + cost.request_service_overhead +
      cost.DiffCreateCost(4096) + cost.DiffApplyCost(4096);
  EXPECT_GE(full_page_diff, 579 * kNanosPerMicro);
  EXPECT_LE(full_page_diff, 1746 * kNanosPerMicro);
}

TEST(NetStats, CountsPerKindAndTotals) {
  NetStats stats;
  stats.Record(MessageKind::kDiffRequest, 24);
  stats.Record(MessageKind::kDiffResponse, 4096);
  stats.Record(MessageKind::kBarrierArrival, 16);
  EXPECT_EQ(stats.total_messages(), 3u);
}

// --- mem ---------------------------------------------------------------------

TEST(GlobalHeap, BumpAllocationAndAlignment) {
  GlobalHeap heap(1 << 20, 4096);
  const GlobalAddr a = heap.Alloc(100, 4, "a");
  const GlobalAddr b = heap.Alloc(100, 64, "b");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 100);
  const GlobalAddr c = heap.AllocUnitAligned(10, "c");
  EXPECT_EQ(c % 4096, 0u);
}

TEST(GlobalHeap, ExhaustionThrows) {
  GlobalHeap heap(8192, 4096);
  heap.Alloc(8000, 4);
  EXPECT_THROW(heap.Alloc(400, 4), CheckError);
}

TEST(GlobalHeap, RejectsBadUnitSizes) {
  EXPECT_THROW(GlobalHeap(1 << 20, 3000), CheckError);   // not a power of 2
  EXPECT_THROW(GlobalHeap(1 << 20, 2048), CheckError);   // below page size
  EXPECT_THROW(GlobalHeap(10000, 4096), CheckError);     // not a multiple
}

TEST(GlobalHeap, UnitMapping) {
  GlobalHeap heap(1 << 20, 8192);
  EXPECT_EQ(heap.UnitOf(0), 0u);
  EXPECT_EQ(heap.UnitOf(8191), 0u);
  EXPECT_EQ(heap.UnitOf(8192), 1u);
  EXPECT_EQ(heap.UnitBase(2), 16384u);
  EXPECT_EQ(heap.num_units(), (1u << 20) / 8192);
}

TEST(PageTable, StateTransitionsAndTwins) {
  PageTable table(4, 4096);
  EXPECT_EQ(table.state(0), UnitState::kReadValid);
  EXPECT_FALSE(table.NeedsFaultOnRead(0));
  EXPECT_TRUE(table.NeedsFaultOnWrite(0));

  std::vector<std::byte> content(4096, std::byte{0x5A});
  table.MakeTwin(1, content);
  EXPECT_TRUE(table.HasTwin(1));
  EXPECT_EQ(table.twin(1)[0], std::byte{0x5A});
  EXPECT_THROW(table.MakeTwin(1, content), CheckError);  // double twin
  table.DropTwin(1);
  EXPECT_FALSE(table.HasTwin(1));

  table.set_state(2, UnitState::kInvalid);
  EXPECT_TRUE(table.NeedsFaultOnRead(2));
  table.set_state(3, UnitState::kUpdatedInvalid);
  EXPECT_TRUE(table.NeedsFaultOnRead(3));
  EXPECT_TRUE(table.NeedsFaultOnWrite(3));
}

TEST(PageTable, TwinPoolRecyclesDroppedBuffers) {
  PageTable table(4, 4096);
  std::vector<std::byte> a(4096, std::byte{0x11});
  std::vector<std::byte> b(4096, std::byte{0x22});

  // First twin comes from the allocator.
  table.MakeTwin(0, a);
  EXPECT_EQ(table.twin_recycles(), 0u);

  // A drop/re-twin cycle is served from the free list...
  table.DropTwin(0);
  table.MakeTwin(1, b);
  EXPECT_EQ(table.twin_recycles(), 1u);
  // ...and carries the new contents, not the dropped twin's.
  EXPECT_EQ(table.twin(1)[0], std::byte{0x22});

  // Same unit re-twinned after a drop also recycles.
  table.DropTwin(1);
  table.MakeTwin(1, a);
  EXPECT_EQ(table.twin_recycles(), 2u);
  EXPECT_EQ(table.twin(1)[0], std::byte{0x11});

  // Two live twins need one fresh allocation beyond the pooled buffer.
  table.MakeTwin(2, b);
  EXPECT_EQ(table.twin_recycles(), 2u);
}

// The canonical-base peak is taken once per GC pass, as live-at-start plus
// newly ensured: concurrent stripes may release one unit's base before
// another stripe ensures a new one, and the peak must not depend on that
// interleaving.
TEST(CanonicalStore, PeakIsLiveAtPassStartPlusNewBases) {
  constexpr std::size_t kUnitBytes = 64;
  CanonicalStore store(8, kUnitBytes);
  EXPECT_EQ(store.peak_bytes(), 0u);

  store.Ensure(0)[0] = std::byte{7};
  store.Ensure(1);
  store.Ensure(1);  // already live: not new
  store.EndPass();
  EXPECT_EQ(store.peak_bytes(), 2 * kUnitBytes);

  // Releases first, then a new base: two live at the start plus one new.
  // The new base reuses unit 0's pooled buffer, zeroed.
  store.Release(0);
  EXPECT_EQ(store.Ensure(2)[0], std::byte{0});
  EXPECT_EQ(store.peak_bytes(), 2 * kUnitBytes);  // folded only at EndPass
  store.EndPass();
  EXPECT_EQ(store.peak_bytes(), 3 * kUnitBytes);

  // A pass that only releases leaves the peak where it was.
  store.Release(1);
  store.Release(2);
  store.EndPass();
  EXPECT_EQ(store.peak_bytes(), 3 * kUnitBytes);
}

TEST(WordTracker, CreditOnFirstReadOnly) {
  WordTracker tracker(2, 1024);
  tracker.Deliver(0, 5, 1, /*msg_id=*/3);
  int credited = -1;
  tracker.OnRead(0, 5, 1, [&](std::uint32_t m) { credited = (int)m; });
  EXPECT_EQ(credited, 3);
  credited = -1;
  tracker.OnRead(0, 5, 1, [&](std::uint32_t m) { credited = (int)m; });
  EXPECT_EQ(credited, -1);  // only the first read credits
}

TEST(WordTracker, OverwriteKillsCredit) {
  WordTracker tracker(2, 1024);
  tracker.Deliver(0, 7, 1, 1);
  tracker.OnWrite(0, 7, 1);
  int credited = -1;
  tracker.OnRead(0, 7, 1, [&](std::uint32_t m) { credited = (int)m; });
  EXPECT_EQ(credited, -1);
}

TEST(WordTracker, RedeliveryRetags) {
  WordTracker tracker(2, 1024);
  tracker.Deliver(0, 9, 1, 1);
  tracker.Deliver(0, 9, 1, 2);  // newer message overwrites the tag
  std::vector<std::uint32_t> credits;
  tracker.OnRead(0, 9, 1, [&](std::uint32_t m) { credits.push_back(m); });
  EXPECT_EQ(credits, (std::vector<std::uint32_t>{2}));
}

TEST(WordTracker, UntouchedUnitsCostNothing) {
  WordTracker tracker(8, 1024);
  EXPECT_FALSE(tracker.HasTracking(5));
  int calls = 0;
  tracker.OnRead(5, 0, 64, [&](std::uint32_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(WordTracker, RangeReadCreditsEachFreshWord) {
  WordTracker tracker(1, 64);
  tracker.Deliver(0, 2, 1, 0);
  tracker.Deliver(0, 3, 1, 0);
  tracker.Deliver(0, 5, 1, 1);
  int credits = 0;
  tracker.OnRead(0, 0, 8, [&](std::uint32_t) { ++credits; });
  EXPECT_EQ(credits, 3);
}

// --- fresh-count bookkeeping (the OnRead/OnWrite early-out) -----------------

TEST(WordTracker, FreshCountReachesZeroAfterCreditsAndOverwrites) {
  WordTracker tracker(2, 64);
  EXPECT_EQ(tracker.fresh_count(0), 0u);
  tracker.Deliver(0, 1, 1, 0);
  tracker.Deliver(0, 5, 1, 0);
  tracker.Deliver(0, 9, 1, 1);
  EXPECT_EQ(tracker.fresh_count(0), 3u);

  tracker.OnWrite(0, 5, 1);  // one mark dies uncredited
  EXPECT_EQ(tracker.fresh_count(0), 2u);

  int credits = 0;
  tracker.OnRead(0, 0, 16, [&](std::uint32_t) { ++credits; });
  EXPECT_EQ(credits, 2);
  EXPECT_EQ(tracker.fresh_count(0), 0u);
}

TEST(WordTracker, ExhaustedUnitTakesEarlyOutWithoutCredits) {
  WordTracker tracker(1, 64);
  tracker.Deliver(0, 3, 1, 7);
  tracker.OnWrite(0, 0, 64);
  ASSERT_EQ(tracker.fresh_count(0), 0u);

  // The unit still has tag storage (HasTracking), but with no live fresh
  // tag both hot paths return before touching it.
  EXPECT_TRUE(tracker.HasTracking(0));
  int credits = 0;
  tracker.OnRead(0, 0, 64, [&](std::uint32_t) { ++credits; });
  EXPECT_EQ(credits, 0);
  tracker.OnWrite(0, 0, 64);  // must also be a no-op
  EXPECT_EQ(tracker.fresh_count(0), 0u);
}

TEST(WordTracker, RedeliveryToFreshWordDoesNotDoubleCount) {
  WordTracker tracker(1, 64);
  tracker.Deliver(0, 4, 1, 1);
  tracker.Deliver(0, 4, 1, 2);  // re-tag, not a second fresh word
  EXPECT_EQ(tracker.fresh_count(0), 1u);

  std::vector<std::uint32_t> credits;
  tracker.OnRead(0, 0, 64, [&](std::uint32_t m) { credits.push_back(m); });
  EXPECT_EQ(credits, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(tracker.fresh_count(0), 0u);
}

TEST(WordTracker, ReadStopsAtLastLiveTagButStaysExact) {
  // The early-break when the count hits zero must not skip credits: two
  // fresh words read in one range call both credit.
  WordTracker tracker(1, 64);
  tracker.Deliver(0, 0, 1, 3);
  tracker.Deliver(0, 63, 1, 4);
  std::vector<std::uint32_t> credits;
  tracker.OnRead(0, 0, 64, [&](std::uint32_t m) { credits.push_back(m); });
  EXPECT_EQ(credits, (std::vector<std::uint32_t>{3, 4}));
  EXPECT_EQ(tracker.fresh_count(0), 0u);
}

TEST(WordTracker, RunDeliveryMatchesPerWordDelivery) {
  // One run over a partly-fresh range must leave exactly the tags and the
  // fresh count that word-by-word delivery of the same range leaves:
  // already-fresh words re-tag without recounting, the rest turn fresh.
  WordTracker run(1, 64);
  WordTracker per_word(1, 64);
  for (WordTracker* t : {&run, &per_word}) {
    t->Deliver(0, 10, 1, 1);
    t->Deliver(0, 12, 3, 2);
    t->Deliver(0, 40, 1, 3);  // outside the run below: must keep its tag
  }
  run.Deliver(0, 8, 16, 9);
  for (std::uint32_t w = 8; w < 24; ++w) per_word.Deliver(0, w, 1, 9);

  EXPECT_EQ(run.fresh_count(0), per_word.fresh_count(0));
  EXPECT_EQ(run.fresh_count(0), 17u);
  for (std::uint32_t w = 0; w < 64; ++w) {
    EXPECT_EQ(run.Tag(0, w), per_word.Tag(0, w)) << "word " << w;
  }
  EXPECT_EQ(run.Tag(0, 40), 4u);

  // A whole-unit delivery (the HLRC fetch shape) re-tags every word.
  run.Deliver(0, 0, 64, 5);
  EXPECT_EQ(run.fresh_count(0), 64u);
  for (std::uint32_t w = 0; w < 64; ++w) EXPECT_EQ(run.Tag(0, w), 6u);
}

// --- core primitives ----------------------------------------------------------

TEST(VectorClockTest, MergeTakesElementwiseMax) {
  VectorClock a(3), b(3);
  a[0] = 5;
  b[1] = 7;
  a.Merge(b);
  EXPECT_EQ(a[0], 5u);
  EXPECT_EQ(a[1], 7u);
  EXPECT_EQ(a[2], 0u);
}

TEST(VectorClockTest, Covers) {
  VectorClock b(2);
  b[0] = 2;
  b[1] = 1;
  EXPECT_TRUE(b.Covers(0, 2));
  EXPECT_FALSE(b.Covers(0, 3));
}

TEST(IntervalArchiveTest, AppendFindRange) {
  IntervalArchive archive;
  for (Seq s : {1u, 3u, 4u, 7u}) {
    IntervalRecord rec;
    rec.proc = 0;
    rec.seq = s;
    rec.vc = VectorClock(2);
    rec.vc[0] = s;
    archive.Append(std::move(rec));
  }
  EXPECT_EQ(archive.size(), 4u);
  EXPECT_NE(archive.Find(3), nullptr);
  EXPECT_EQ(archive.Find(2), nullptr);  // seq gaps are legal
  const auto range = archive.Range(1, 4);
  ASSERT_EQ(range.size(), 2u);
  EXPECT_EQ(range[0]->seq, 3u);
  EXPECT_EQ(range[1]->seq, 4u);
}

TEST(IntervalArchiveTest, RejectsOutOfOrderAppend) {
  IntervalArchive archive;
  IntervalRecord rec;
  rec.proc = 0;
  rec.seq = 5;
  archive.Append(std::move(rec));
  IntervalRecord older;
  older.proc = 0;
  older.seq = 4;
  EXPECT_THROW(archive.Append(std::move(older)), CheckError);
}

TEST(IntervalArchiveTest, PaysForDiffPhaseSemantics) {
  IntervalArchive archive;
  IntervalRecord rec;
  rec.proc = 0;
  rec.seq = 1;
  rec.units = {4};
  rec.diffs.resize(1);
  const IntervalRecord* stored = archive.Append(std::move(rec));
  // First requester pays, and so does any requester in the same phase
  // (modelled as concurrent scans at the server — keeps the charge
  // deterministic under host scheduling).
  EXPECT_TRUE(stored->PaysForDiff(0, 3));
  EXPECT_TRUE(stored->PaysForDiff(0, 3));
  // Later phases are served from the writer's diff cache.
  EXPECT_FALSE(stored->PaysForDiff(0, 4));
  EXPECT_FALSE(stored->PaysForDiff(0, 7));
}

TEST(IntervalArchiveTest, ConcurrentAppendAndLookup) {
  IntervalArchive archive;
  std::thread writer([&] {
    for (Seq s = 1; s <= 1000; ++s) {
      IntervalRecord rec;
      rec.proc = 0;
      rec.seq = s;
      archive.Append(std::move(rec));
    }
  });
  // Concurrent lookups must be safe and monotone while the writer appends.
  std::size_t prev = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::size_t now = archive.Range(0, 1000).size();
    EXPECT_GE(now, prev);
    prev = now;
  }
  writer.join();
  EXPECT_EQ(archive.size(), 1000u);
  EXPECT_EQ(archive.Range(0, 1000).size(), 1000u);
}

// The fault path and CollectNotices read records through the pointers
// that Find and Range return, after the archive mutex is released, while
// the owner keeps appending and the GC prunes an older prefix.  Records
// live in the archive by value, so its storage must never move them.
TEST(IntervalArchiveTest, PointersSurviveAppendsAndPrefixPrunes) {
  IntervalArchive archive;
  auto append = [&archive](Seq s) {
    IntervalRecord rec;
    rec.proc = 0;
    rec.seq = s;
    rec.vc = VectorClock(2);
    rec.vc[0] = s;
    rec.units = {static_cast<UnitId>(s)};
    std::vector<std::byte> twin(64), current(64);
    std::memcpy(current.data(), &s, sizeof(s));
    rec.diffs.push_back(Diff::Create(twin, current));
    archive.Append(std::move(rec));
  };
  for (Seq s = 1; s <= 100; ++s) append(s);
  const IntervalRecord* found = archive.Find(60);
  ASSERT_NE(found, nullptr);
  const std::vector<const IntervalRecord*> range = archive.Range(50, 100);
  ASSERT_EQ(range.size(), 50u);

  for (Seq s = 101; s <= 5000; ++s) append(s);
  EXPECT_EQ(archive.PruneThrough(50), 50u);
  EXPECT_EQ(archive.size(), 4950u);

  EXPECT_EQ(archive.Find(60), found);
  EXPECT_EQ(found->seq, 60u);
  EXPECT_EQ(found->units[0], 60u);
  EXPECT_EQ(found->diffs[0].payload_word(0), 60u);
  for (std::size_t i = 0; i < range.size(); ++i) {
    const Seq s = static_cast<Seq>(51 + i);
    EXPECT_EQ(range[i]->seq, s);
    EXPECT_EQ(range[i]->vc[0], s);
    EXPECT_EQ(range[i]->diffs[0].payload_word(0), s);
  }
}

// HbKey orders every random 8-proc history in happens-before order.  The
// clocks evolve as the protocol's do: a close bumps the closer's own
// component, a lock release publishes the releaser's clock and a later
// acquire merges it, and a barrier merges every clock into every clock.
// Sorted by the key, no record may precede a record that its own clock
// covers.  Each history also holds a covered pair that (proc, seq) alone
// would order backwards, so a key without the clock sum fails here.
TEST(HbKeyTest, SortIsALinearExtensionOfHappensBefore) {
  constexpr int kProcs = 8;
  constexpr int kLocks = 3;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Xoshiro256 rng(seed);
    std::vector<VectorClock> vc(kProcs, VectorClock(kProcs));
    std::vector<VectorClock> lock_vc(kLocks, VectorClock(kProcs));
    std::vector<IntervalRecord> history;
    auto close = [&](ProcId p) {
      IntervalRecord rec;
      rec.proc = p;
      rec.seq = ++vc[p][p];
      rec.vc = vc[p];
      history.push_back(std::move(rec));
    };
    for (int step = 0; step < 240; ++step) {
      const auto p = static_cast<ProcId>(rng.UniformInt(kProcs));
      const std::uint64_t event = rng.UniformInt(20);
      if (event < 10) {
        close(p);
      } else if (event < 19) {
        // Lock hand-off: p releases, a random proc acquires.
        const std::size_t lock = rng.UniformInt(kLocks);
        close(p);
        lock_vc[lock] = vc[p];
        vc[rng.UniformInt(kProcs)].Merge(lock_vc[lock]);
      } else {
        VectorClock global(kProcs);
        for (ProcId q = 0; q < kProcs; ++q) {
          if (rng.UniformInt(2) == 0) close(q);
          global.Merge(vc[q]);
        }
        for (ProcId q = 0; q < kProcs; ++q) vc[q] = global;
      }
    }

    // Pairs where b happened-before a but a has the lower proc id.
    std::size_t inverted_by_proc = 0;
    for (const IntervalRecord& a : history) {
      for (const IntervalRecord& b : history) {
        if (a.proc < b.proc && a.vc.Covers(b.proc, b.seq)) {
          ++inverted_by_proc;
        }
      }
    }
    EXPECT_GT(inverted_by_proc, 0u) << "seed " << seed;

    std::sort(history.begin(), history.end(),
              [](const IntervalRecord& a, const IntervalRecord& b) {
                return HbKey(a) < HbKey(b);
              });
    std::size_t violations = 0;
    for (std::size_t i = 0; i < history.size(); ++i) {
      for (std::size_t j = i + 1; j < history.size(); ++j) {
        if (history[i].vc.Covers(history[j].proc, history[j].seq)) {
          ++violations;
        }
      }
    }
    EXPECT_EQ(violations, 0u) << "seed " << seed;
  }
}

// --- stats schema -------------------------------------------------------------

// Every std::uint64_t member of CommBreakdown has a schema row: a member
// added without one changes the size and fails here.
static_assert(sizeof(CommBreakdown) ==
              std::size(kCounterRows) * sizeof(std::uint64_t) +
                  sizeof(SplitHistogram));

// Each row, set alone, is named by ModelledStateDiff and ToString, doubled
// by Merge, and moves the fingerprint.
TEST(StatsSchema, EveryCounterIsDiffedMergedAndHashed) {
  const RunStats zero;
  const std::uint64_t zero_fingerprint = ModelledFingerprint(0.0, zero);
  for (const CounterRow& row : kCounterRows) {
    RunStats one;
    one.comm.*row.member = 3;
    EXPECT_EQ(ModelledStateDiff(zero, one),
              std::string(row.name) + ": 0 vs 3\n");
    EXPECT_NE(one.comm.ToString().find(std::string(row.name) + "=3"),
              std::string::npos)
        << row.name;
    CommBreakdown merged = one.comm;
    merged.Merge(one.comm);
    EXPECT_EQ(merged.*row.member, 6u) << row.name;
    EXPECT_NE(ModelledFingerprint(0.0, one), zero_fingerprint) << row.name;
  }
}

}  // namespace
}  // namespace dsm
