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
#include "core/comm_stats.h"
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

// A record of `proc`'s interval `seq` at clock `vc` whose units carry no
// diff: the notice-only form HLRC archives.
IntervalRecord NoticeRecord(ProcId proc, Seq seq, const VectorClock& vc,
                            const std::vector<UnitId>& units = {}) {
  IntervalDraft draft;
  for (UnitId u : units) draft.AddNotice(u);
  return IntervalRecord(proc, seq, vc, draft);
}

VectorClock ClockAt(ProcId proc, Seq seq, int nprocs = 2) {
  VectorClock vc(nprocs);
  vc[proc] = seq;
  return vc;
}

TEST(IntervalArchiveTest, AppendAndRange) {
  IntervalArchive archive;
  for (Seq s : {1u, 3u, 4u, 7u}) {
    archive.Append(NoticeRecord(0, s, ClockAt(0, s)));
  }
  EXPECT_EQ(archive.size(), 4u);
  EXPECT_EQ(archive.CountThrough(3), 2u);
  EXPECT_EQ(archive.CountThrough(2), 1u);  // seq gaps are legal
  // Range appends after what the caller's buffer already holds.
  std::vector<const IntervalRecord*> range;
  archive.Range(0, 1, range);
  archive.Range(1, 4, range);
  ASSERT_EQ(range.size(), 3u);
  EXPECT_EQ(range[0]->seq(), 1u);
  EXPECT_EQ(range[1]->seq(), 3u);
  EXPECT_EQ(range[2]->seq(), 4u);
}

TEST(IntervalArchiveTest, RejectsOutOfOrderAppend) {
  IntervalArchive archive;
  archive.Append(NoticeRecord(0, 5, ClockAt(0, 5)));
  EXPECT_THROW(archive.Append(NoticeRecord(0, 4, ClockAt(0, 4))),
               CheckError);
}

TEST(IntervalArchiveTest, PaysForDiffPhaseSemantics) {
  IntervalArchive archive;
  std::vector<std::byte> twin(64), current(64);
  current[0] = std::byte{1};
  IntervalDraft draft;
  draft.AddDiff(4, twin, current);
  const IntervalRecord* stored =
      archive.Append(IntervalRecord(0, 1, ClockAt(0, 1), draft));
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
      archive.Append(NoticeRecord(0, s, ClockAt(0, s)));
    }
  });
  // Concurrent lookups must be safe and monotone while the writer appends.
  std::size_t prev = 0;
  std::vector<const IntervalRecord*> range;
  for (int i = 0; i < 2000; ++i) {
    range.clear();
    archive.Range(0, 1000, range);
    EXPECT_GE(range.size(), prev);
    prev = range.size();
  }
  writer.join();
  EXPECT_EQ(archive.size(), 1000u);
  range.clear();
  archive.Range(0, 1000, range);
  EXPECT_EQ(range.size(), 1000u);
}

// Pending notices and CollectNotices read records through the pointers
// that Range returns, after the archive mutex is released, while the
// owner keeps appending and the GC prunes an older prefix.  Records live
// in the archive by value, so its storage must never move them, and each
// record's block must stay where it is.
TEST(IntervalArchiveTest, PointersSurviveAppendsAndPrefixPrunes) {
  IntervalArchive archive;
  auto append = [&archive](Seq s) {
    std::vector<std::byte> twin(64), current(64);
    std::memcpy(current.data(), &s, sizeof(s));
    IntervalDraft draft;
    draft.AddDiff(static_cast<UnitId>(s), twin, current);
    archive.Append(IntervalRecord(0, s, ClockAt(0, s), draft));
  };
  for (Seq s = 1; s <= 100; ++s) append(s);
  std::vector<const IntervalRecord*> range;
  archive.Range(50, 100, range);
  ASSERT_EQ(range.size(), 50u);
  const IntervalRecord* found = range[9];
  ASSERT_EQ(found->seq(), 60u);

  for (Seq s = 101; s <= 5000; ++s) append(s);
  EXPECT_EQ(archive.PruneThrough(50), 50u);
  EXPECT_EQ(archive.size(), 4950u);

  std::vector<const IntervalRecord*> again;
  archive.Range(59, 60, again);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0], found);
  EXPECT_EQ(found->units()[0], 60u);
  EXPECT_EQ(found->payload_word(0, 0), 60u);
  for (std::size_t i = 0; i < range.size(); ++i) {
    const Seq s = static_cast<Seq>(51 + i);
    EXPECT_EQ(range[i]->seq(), s);
    EXPECT_EQ(range[i]->vc(0), s);
    EXPECT_EQ(range[i]->payload_word(0, 0), s);
  }
}

// One record's block holds the clock, the units, every unit's runs and
// payload words.  Each unit round-trips against the run pass over the
// same twin and image: the same runs and their wire size, each payload
// word equal to the image word at its run offset, and applying the
// record's diff to the twin rebuilds the image.  The notice and retained
// sizes, and the happens-before key, are the record's own.
TEST(IntervalRecordTest, PackedBlockMatchesDiffs) {
  struct UnitCase {
    UnitId unit;
    std::vector<std::byte> twin, current;
  };
  Xoshiro256 rng(7);
  auto random_unit = [&rng](UnitId unit, std::size_t words) {
    UnitCase c{unit, std::vector<std::byte>(words * kWordBytes), {}};
    for (std::byte& b : c.twin) b = static_cast<std::byte>(rng.UniformInt(256));
    c.current = c.twin;
    for (std::size_t w = 0; w < words; ++w) {
      if (rng.UniformInt(3) == 0) c.current[w * kWordBytes] ^= std::byte{0x5a};
    }
    return c;
  };
  // Every other word of a 4 KB unit: 512 one-word runs.
  UnitCase many_runs{9, std::vector<std::byte>(4096), std::vector<std::byte>(4096)};
  for (std::size_t w = 0; w < 1024; w += 2) {
    many_runs.current[w * kWordBytes] = std::byte{1};
  }

  std::vector<std::vector<UnitCase>> records;
  records.emplace_back();  // no units
  records.push_back({random_unit(3, 16)});
  records.push_back({std::move(many_runs)});
  records.emplace_back();
  for (UnitId u = 0; u < 512; ++u) {
    records.back().push_back(random_unit(u * 5 + 1, 1 + u % 24));
  }

  constexpr int kProcs = 8;
  for (std::size_t r = 0; r < records.size(); ++r) {
    const std::vector<UnitCase>& cases = records[r];
    VectorClock vc(kProcs);
    for (ProcId p = 0; p < kProcs; ++p) vc[p] = static_cast<Seq>(r * 10 + p);
    const ProcId proc = static_cast<ProcId>(r % kProcs);
    const Seq seq = vc[proc];
    IntervalDraft draft;
    for (const UnitCase& c : cases) draft.AddDiff(c.unit, c.twin, c.current);
    const IntervalRecord rec(proc, seq, vc, draft);

    ASSERT_EQ(rec.num_units(), cases.size()) << "record " << r;
    EXPECT_EQ(rec.proc(), proc);
    EXPECT_EQ(rec.seq(), seq);
    for (ProcId p = 0; p < kProcs; ++p) EXPECT_EQ(rec.vc(p), vc[p]);
    std::uint64_t vc_sum = 0;
    for (ProcId p = 0; p < kProcs; ++p) vc_sum += vc[p];
    const HbKey key(rec);
    EXPECT_EQ(key.vc_sum, vc_sum);
    EXPECT_EQ(key.proc, proc);
    EXPECT_EQ(key.seq, seq);
    EXPECT_EQ(rec.NoticeBytes(), 16 + 8 * cases.size());

    std::size_t retained = rec.NoticeBytes();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const UnitCase& c = cases[i];
      std::vector<DiffRun> expected;
      const std::size_t words = Diff::FindRuns(c.twin, c.current, expected);
      EXPECT_EQ(rec.units()[i], c.unit);
      const std::span<const DiffRun> runs = rec.runs(i);
      ASSERT_EQ(runs.size(), expected.size())
          << "record " << r << " unit " << i;
      for (std::size_t k = 0; k < runs.size(); ++k) {
        EXPECT_EQ(runs[k].word_offset, expected[k].word_offset);
        EXPECT_EQ(runs[k].word_count, expected[k].word_count);
      }
      ASSERT_EQ(rec.payload_words(i), words);
      std::size_t k = 0;
      for (const DiffRun& run : runs) {
        for (std::uint32_t w = 0; w < run.word_count; ++w) {
          std::uint32_t image_word = 0;
          std::memcpy(&image_word,
                      c.current.data() +
                          std::size_t{run.word_offset + w} * kWordBytes,
                      kWordBytes);
          EXPECT_EQ(rec.payload_word(i, k++), image_word);
        }
      }
      const std::size_t wire = Diff::WireBytes(expected.size(), words);
      EXPECT_EQ(rec.EncodedBytes(i), wire);
      std::vector<std::byte> rebuilt = c.twin;
      rec.Apply(i, rebuilt);
      EXPECT_EQ(rebuilt, c.current) << "record " << r << " unit " << i;
      retained += wire;
    }
    EXPECT_EQ(rec.RetainedBytes(), retained);
  }
  // The many-runs unit really has them.
  IntervalDraft draft;
  draft.AddDiff(9, records[2][0].twin, records[2][0].current);
  EXPECT_EQ(IntervalRecord(0, 1, ClockAt(0, 1), draft).runs(0).size(), 512u);
}

// HLRC archives notices only: units and clock, no runs, no payload.
TEST(IntervalRecordTest, NoticeOnlyRecordHasUnitsAndNoDiffs) {
  VectorClock vc(4);
  vc[2] = 5;
  vc[0] = 3;
  const IntervalRecord rec = NoticeRecord(2, 5, vc, {7, 1, 40});
  ASSERT_EQ(rec.num_units(), 3u);
  EXPECT_EQ(rec.units()[0], 7u);
  EXPECT_EQ(rec.units()[1], 1u);
  EXPECT_EQ(rec.units()[2], 40u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(rec.runs(i).empty());
    EXPECT_EQ(rec.payload_words(i), 0u);
    EXPECT_EQ(rec.EncodedBytes(i), Diff::WireBytes(0, 0));
  }
  EXPECT_EQ(rec.NoticeBytes(), 16u + 3 * 8);
  EXPECT_EQ(rec.RetainedBytes(), rec.NoticeBytes() + 3 * Diff::kHeaderBytes);
  EXPECT_EQ(HbKey(rec).vc_sum, 8u);
  EXPECT_EQ(rec.stamps(), nullptr);  // nothing to materialize
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
  auto covers = [](const IntervalRecord& a, const IntervalRecord& b) {
    return a.vc(b.proc()) >= b.seq();
  };
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Xoshiro256 rng(seed);
    std::vector<VectorClock> vc(kProcs, VectorClock(kProcs));
    std::vector<VectorClock> lock_vc(kLocks, VectorClock(kProcs));
    std::vector<IntervalRecord> history;
    auto close = [&](ProcId p) {
      const Seq seq = ++vc[p][p];
      history.push_back(NoticeRecord(p, seq, vc[p]));
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
        if (a.proc() < b.proc() && covers(a, b)) ++inverted_by_proc;
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
        if (covers(history[i], history[j])) ++violations;
      }
    }
    EXPECT_EQ(violations, 0u) << "seed " << seed;
  }
}

// --- communication statistics ------------------------------------------------

// Finalize's classification on hand-built exchanges: a useful exchange
// whose unread words ride along as piggybacked useless data, a useless
// exchange, and the fault that contacted both in the signature's
// two-writer bucket.
TEST(CommStatsTest, FinalizeSplitsExchangesAndSignature) {
  CommStats stats;
  const std::uint32_t useful = stats.NewExchange();
  const std::uint32_t useless = stats.NewExchange();
  stats.AddDelivered(useful, 6);
  stats.AddDelivered(useful, 4);
  stats.AddDelivered(useless, 5);
  for (int i = 0; i < 3; ++i) stats.Credit(useful);
  stats.RecordFault(2, useful);

  const CommBreakdown c = stats.Finalize();
  EXPECT_EQ(c.useful_messages, 2u);
  EXPECT_EQ(c.useless_messages, 2u);
  EXPECT_EQ(c.useful_data_bytes, 3 * kWordBytes);
  EXPECT_EQ(c.piggyback_useless_bytes, 7 * kWordBytes);
  EXPECT_EQ(c.useless_msg_data_bytes, 5 * kWordBytes);
  EXPECT_EQ(c.total_data_bytes(), 15 * kWordBytes);
  ASSERT_GE(c.signature.num_buckets(), 3u);
  EXPECT_EQ(c.signature.useful(2), 1u);
  EXPECT_EQ(c.signature.useless(2), 1u);
  EXPECT_EQ(c.signature.grand_total(), 2u);
}

// An exchange credited with more words than it delivered is an accounting
// bug, and Finalize refuses it.
TEST(CommStatsTest, FinalizeRejectsOverCredit) {
  CommStats stats;
  const std::uint32_t ex = stats.NewExchange();
  stats.AddDelivered(ex, 1);
  stats.Credit(ex);
  stats.Credit(ex);
  stats.RecordFault(1, ex);
  EXPECT_THROW(stats.Finalize(), CheckError);
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
