// Deterministic fault injection + crash recovery (DESIGN.md §9).
//
// A FaultSchedule kills an ordered list of victims — ANY
// processor, proc 0 and repeat victims included — each at a modelled
// point: the victim's n-th barrier or right after its m-th interval
// close.  The RecoveryCoordinator rebuilds each victim's volatile state
// from the stable substrate (LRC: canonical-base checkpoints + surviving
// archives; HLRC: home images, with a crashed home's units reconstructed
// from surviving sharers and re-homed via the override table), and proc
// 0's coordinator roles fail over to the lowest surviving rank for the
// crash barrier.  The gates:
//
//   * post-recovery results bit-identical to the failure-free run for
//     every conformance cell, proc-0 and home-crash schedules included,
//   * a schedule that never fires changes nothing: every conformance
//     app keeps its result, and every barrier app models exactly what
//     the unarmed run models, GC footprint included,
//   * the same schedule twice → bit-identical everything, recovery
//     telemetry included — swept over ≥32 seeded schedules,
//   * FaultSchedule::FromSeed pins the seeded crash points, and Parse
//     inverts Label,
//   * LRC with the archive GC disabled fails fast with a clear
//     "no checkpoint available" error instead of hanging; HLRC with the
//     GC disabled accepts the same schedule (homes, not checkpoints, are
//     its stable substrate),
//   * recovery telemetry appears in ToString only when a fault fired.
#include <gtest/gtest.h>

#include <cctype>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.h"
#include "core/fault.h"
#include "test_matrix.h"

namespace dsm::apps {
namespace {

using Events = std::vector<FaultSchedule::Event>;
constexpr FaultPoint kBarrier = FaultPoint::kAtBarrier;
constexpr FaultPoint kRelease = FaultPoint::kAfterRelease;

// --- targeted rebuild checks -------------------------------------------------
//
// A small deterministic epoch program with a known final value per word:
// proc 0 rewrites one region every epoch (foreign history for the victim),
// the victim (proc 1) rewrites its own region (its OWN archive must feed
// the rebuild — the log models stable storage and survives the crash), and
// proc 2 reads the victim's region at the end (the victim's shared-side
// state must stay servable through the crash).
struct EpochOutcome {
  std::vector<int> victim_saw;
  std::vector<int> peer_saw;
  RunStats stats;
};

EpochOutcome RunEpochs(BackendKind backend, const Events& events,
                       int gc_interval = -1) {
  RuntimeConfig cfg;
  cfg.num_procs = 4;
  cfg.heap_bytes = 1u << 20;
  cfg.backend = backend;
  cfg.fault.events = events;
  if (gc_interval >= 0) cfg.gc_interval_barriers = gc_interval;
  constexpr int kEpochs = 8;
  constexpr std::size_t kWords = 16;

  Runtime rt(cfg);
  auto data = rt.Alloc<int>(1024, "data");
  EpochOutcome out;
  std::mutex mu;
  rt.Run([&](Proc& p) {
    for (int e = 0; e < kEpochs; ++e) {
      if (p.id() == 0) {
        for (std::size_t i = 0; i < kWords; ++i) {
          p.Write(data, i, 1000 * (e + 1) + static_cast<int>(i));
        }
      }
      if (p.id() == 1) {
        for (std::size_t i = 0; i < kWords; ++i) {
          p.Write(data, 64 + i, 500 * (e + 1) + static_cast<int>(i));
        }
      }
      p.Barrier();
    }
    if (p.id() == 1) {
      std::vector<int> got;
      for (std::size_t i = 0; i < kWords; ++i) got.push_back(p.Read(data, i));
      for (std::size_t i = 0; i < kWords; ++i) {
        got.push_back(p.Read(data, 64 + i));
      }
      std::lock_guard lock(mu);
      out.victim_saw = std::move(got);
    }
    if (p.id() == 2) {
      std::vector<int> got;
      for (std::size_t i = 0; i < kWords; ++i) {
        got.push_back(p.Read(data, 64 + i));
      }
      std::lock_guard lock(mu);
      out.peer_saw = std::move(got);
    }
    p.Barrier();
  });
  out.stats = rt.CollectStats();
  return out;
}

void ExpectEpochValues(const EpochOutcome& out, const std::string& where) {
  ASSERT_EQ(out.victim_saw.size(), 32u) << where;
  ASSERT_EQ(out.peer_saw.size(), 16u) << where;
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(out.victim_saw[i], 8000 + static_cast<int>(i))
        << where << " foreign word " << i;
    EXPECT_EQ(out.victim_saw[16 + i], 4000 + static_cast<int>(i))
        << where << " own word " << i;
    EXPECT_EQ(out.peer_saw[i], 4000 + static_cast<int>(i))
        << where << " peer-read word " << i;
  }
}

TEST(RecoveryRebuild, LrcAtBarrierMatchesFailureFree) {
  // Barrier 3: the first GC pass (interval 1, lag 2) has completed, so the
  // rebuild exercises checkpoint bases + log tail, not just log replay.
  const EpochOutcome fault = RunEpochs(BackendKind::kLrc, {{kBarrier, 1, 3}});
  const EpochOutcome clean = RunEpochs(BackendKind::kLrc, {});
  ExpectEpochValues(fault, "lrc at-barrier");
  EXPECT_EQ(fault.victim_saw, clean.victim_saw);
  EXPECT_EQ(fault.peer_saw, clean.peer_saw);
  EXPECT_EQ(fault.stats.comm.recoveries, 1u);
  EXPECT_GT(fault.stats.comm.recovery_messages, 0u);
  EXPECT_GT(fault.stats.comm.recovery_units, 0u);
  EXPECT_GT(fault.stats.comm.recovery_modelled_ns, 0u);
  EXPECT_EQ(clean.stats.comm.recoveries, 0u);
}

TEST(RecoveryRebuild, LrcEarlyBarrierRebuildsFromPureLogReplay) {
  // Barrier 1: no GC pass has run yet — no canonical bases, the rebuild
  // is pure archive replay from the zero heap.
  const EpochOutcome fault = RunEpochs(BackendKind::kLrc, {{kBarrier, 1, 1}});
  ExpectEpochValues(fault, "lrc early barrier");
  EXPECT_EQ(fault.stats.comm.recoveries, 1u);
  EXPECT_GT(fault.stats.comm.recovery_records, 0u);
}

TEST(RecoveryRebuild, LrcAfterReleaseRebuildsMidInterval) {
  const EpochOutcome fault = RunEpochs(BackendKind::kLrc, {{kRelease, 1, 2}});
  const EpochOutcome clean = RunEpochs(BackendKind::kLrc, {});
  ExpectEpochValues(fault, "lrc after-release");
  EXPECT_EQ(fault.victim_saw, clean.victim_saw);
  EXPECT_EQ(fault.peer_saw, clean.peer_saw);
  EXPECT_EQ(fault.stats.comm.recoveries, 1u);
}

TEST(RecoveryRebuild, HlrcAtBarrierRebuildsFromHomes) {
  const EpochOutcome fault =
      RunEpochs(BackendKind::kHlrc, {{kBarrier, 1, 3}});
  const EpochOutcome clean = RunEpochs(BackendKind::kHlrc, {});
  ExpectEpochValues(fault, "hlrc at-barrier");
  EXPECT_EQ(fault.victim_saw, clean.victim_saw);
  EXPECT_EQ(fault.peer_saw, clean.peer_saw);
  EXPECT_EQ(fault.stats.comm.recoveries, 1u);
  // HLRC recovery is whole-unit home copies: units but no replayed records.
  EXPECT_GT(fault.stats.comm.recovery_units, 0u);
  EXPECT_EQ(fault.stats.comm.recovery_records, 0u);
}

TEST(RecoveryRebuild, HlrcAfterReleaseRebuildsFromHomes) {
  const EpochOutcome fault =
      RunEpochs(BackendKind::kHlrc, {{kRelease, 1, 2}});
  ExpectEpochValues(fault, "hlrc after-release");
  EXPECT_EQ(fault.stats.comm.recoveries, 1u);
}

// A rebuilt victim is a sharer of every unit, so it never adopts the
// virgin store's chains (DESIGN.md §8).  Proc 2 never touches the unit
// before it crashes, so the pass at barrier 2 (default lag 2) flattens
// proc 0's first write into the virgin store, which proc 2 would share.
// Its rebuild replays the newer write over the checkpoint; adopting the
// older virgin chain at its first fault would copy the stale word back
// from the canonical base.
struct VirginVictimOutcome {
  int read = 0;
  RunStats stats;
};

VirginVictimOutcome RunVirginVictim(const Events& events) {
  RuntimeConfig cfg;
  cfg.num_procs = 4;
  cfg.heap_bytes = 1u << 20;
  cfg.fault.events = events;
  Runtime rt(cfg);
  auto data = rt.Alloc<int>(1024, "data");
  VirginVictimOutcome out;
  rt.Run([&](Proc& p) {
    if (p.id() == 0) p.Write(data, 0, 1);
    for (int b = 0; b < 3; ++b) p.Barrier();  // barriers 0-2
    if (p.id() == 0) p.Write(data, 0, 2);
    p.Barrier();  // barrier 3: the crash point
    if (p.id() == 0) p.Write(data, 1, 5);
    p.Barrier();
    if (p.id() == 2) out.read = p.Read(data, 0);
    p.Barrier();
  });
  out.stats = rt.CollectStats();
  return out;
}

TEST(RecoveryRebuild, LrcVictimNeverAdoptsOlderVirginHistory) {
  const VirginVictimOutcome fault = RunVirginVictim({{kBarrier, 2, 3}});
  const VirginVictimOutcome clean = RunVirginVictim({});
  EXPECT_EQ(fault.read, 2);
  EXPECT_EQ(clean.read, 2);
  EXPECT_EQ(fault.stats.comm.recoveries, 1u);
  EXPECT_EQ(clean.stats.comm.recoveries, 0u);
  EXPECT_GT(fault.stats.mem.chains_shared, 0u);
  EXPECT_GT(clean.stats.mem.chains_shared, 0u);
}

// --- conformance sweep -------------------------------------------------------
//
// Every catalogue app, every unit size, both protocol backends, both crash
// kinds: the post-recovery checksum must match the failure-free run bit
// for bit.
class RecoveryConformanceTest
    : public ::testing::TestWithParam<ConformanceScenario> {};

TEST_P(RecoveryConformanceTest, PostRecoveryChecksumMatchesFailureFree) {
  const ConformanceScenario& s = GetParam();
  const FaultSchedule::Event kEvents[] = {
      {kBarrier, 1, 1},
      {kRelease, 1, 2},
  };
  for (const AggPoint& agg : kAggs) {
    for (BackendKind backend : {BackendKind::kLrc, BackendKind::kHlrc}) {
      RuntimeConfig cfg;
      cfg.num_procs = s.num_procs;
      cfg.aggregation = agg.mode;
      cfg.pages_per_unit = agg.ppu;
      cfg.backend = backend;
      const std::string cell =
          s.app + " @ " + agg.label +
          (backend == BackendKind::kLrc ? " LRC" : " HLRC");

      auto base_app = MakeApp(s.app, s.dataset);
      const AppRun baseline = Execute(*base_app, cfg);
      EXPECT_EQ(baseline.stats.comm.recoveries, 0u) << cell;

      for (const FaultSchedule::Event& event : kEvents) {
        const std::string where =
            cell + (event.point == kBarrier ? " at-barrier" : " after-release");
        RuntimeConfig fcfg = cfg;
        fcfg.fault.events = {event};
        auto app = MakeApp(s.app, s.dataset);
        const AppRun run = Execute(*app, fcfg);
        if (event.point == kRelease && s.app == "TSP") {
          // TSP's workers take tours from the shared queue in host order:
          // the victim may close fewer non-empty intervals than the
          // trigger (the queue can starve a worker), so the event fires
          // at most once.
          EXPECT_LE(run.stats.comm.recoveries, 1u) << where;
        } else {
          EXPECT_EQ(run.stats.comm.recoveries, 1u) << where;
        }
        EXPECT_EQ(run.result, baseline.result) << where;
      }
    }
  }
}

// Arming a schedule sets up the injector, the coordinator choice and the
// re-home table, and none of them may change the model until an event
// fires.  A schedule whose one event never comes must leave every cell
// exactly as the unarmed run left it, the GC's footprint included.  Lock
// apps take their grants in host order, so only their results compare.
TEST_P(RecoveryConformanceTest, UnfiredScheduleChangesNothing) {
  const ConformanceScenario& s = GetParam();
  for (BackendKind backend : {BackendKind::kLrc, BackendKind::kHlrc}) {
    RuntimeConfig cfg;
    cfg.num_procs = 4;
    cfg.backend = backend;
    RuntimeConfig armed = cfg;
    armed.fault.events = {{kRelease, 1, 1000000}};
    const std::string where =
        s.app + (backend == BackendKind::kLrc ? " LRC" : " HLRC");

    auto off_app = MakeApp(s.app, s.dataset);
    const AppRun off = Execute(*off_app, cfg);
    auto on_app = MakeApp(s.app, s.dataset);
    const AppRun on = Execute(*on_app, armed);
    EXPECT_EQ(on.stats.comm.recoveries, 0u) << where;
    EXPECT_EQ(on.result, off.result) << where;
    if (!s.modelled_stable) continue;
    EXPECT_EQ(ModelledStateDiff(on.stats, off.stats), "") << where;
    EXPECT_TRUE(on.stats.mem == off.stats.mem) << where;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, RecoveryConformanceTest,
    ::testing::ValuesIn(ConformanceScenarios()),
    [](const ::testing::TestParamInfo<ConformanceScenario>& info) {
      std::string name = info.param.app;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// --- determinism -------------------------------------------------------------
//
// The same schedule twice must reproduce the run bit for bit: checksum,
// full modelled state, recovery telemetry.  Swept over backend × unit
// size × gc cadence.
TEST(RecoveryDeterminism, SameScheduleTwiceIsBitIdentical) {
  for (BackendKind backend : {BackendKind::kLrc, BackendKind::kHlrc}) {
    for (const AggPoint& agg : kAggs) {
      for (int gc : {1, 4}) {
        for (const FaultSchedule::Event& event :
             {FaultSchedule::Event{kBarrier, 1, 2},
              FaultSchedule::Event{kRelease, 1, 2}}) {
          const std::string where =
              std::string(backend == BackendKind::kLrc ? "LRC" : "HLRC") +
              " @ " + agg.label + " gc=" + std::to_string(gc) +
              (event.point == kBarrier ? " at-barrier" : " after-release");
          RuntimeConfig cfg;
          cfg.num_procs = 4;
          cfg.aggregation = agg.mode;
          cfg.pages_per_unit = agg.ppu;
          cfg.backend = backend;
          cfg.gc_interval_barriers = gc;
          cfg.fault.events = {event};

          auto app_a = MakeApp("Jacobi", "tiny");
          const AppRun a = Execute(*app_a, cfg);
          auto app_b = MakeApp("Jacobi", "tiny");
          const AppRun b = Execute(*app_b, cfg);

          EXPECT_EQ(a.stats.comm.recoveries, 1u) << where;
          EXPECT_GT(a.stats.comm.recovery_modelled_ns, 0u) << where;
          EXPECT_EQ(a.result, b.result) << where;
          EXPECT_EQ(ModelledStateDiff(a.stats, b.stats), "") << where;
        }
      }
    }
  }
}

// The seed drives the victim choice deterministically, uniform over ALL
// processors — proc 0 is a legal pick (its coordinator roles fail over).
TEST(RecoveryDeterminism, SeedDerivedVictimIsStableOverAllProcs) {
  bool saw_zero = false;
  bool saw_nonzero = false;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const FaultSchedule p = FaultSchedule::FromSeed(seed, 8);
    const FaultSchedule q = FaultSchedule::FromSeed(seed, 8);
    EXPECT_EQ(p.events, q.events) << seed;
    ASSERT_FALSE(p.events.empty()) << seed;
    for (const FaultSchedule::Event& e : p.events) {
      EXPECT_GE(e.victim, 0) << seed;
      EXPECT_LT(e.victim, 8) << seed;
    }
    (p.events[0].victim == 0 ? saw_zero : saw_nonzero) = true;
  }
  EXPECT_TRUE(saw_zero) << "64 seeds never picked proc 0: not uniform";
  EXPECT_TRUE(saw_nonzero);

  // Seeded schedules are well-formed — no duplicate (victim, point, at) —
  // and pass Validate() as they are.
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    RuntimeConfig cfg;
    cfg.num_procs = 4;
    cfg.fault = FaultSchedule::FromSeed(seed, 4);
    const Events& t = cfg.fault.events;
    for (std::size_t i = 0; i < t.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        EXPECT_FALSE(t[i] == t[j]) << "seed " << seed << " events " << j
                                   << "," << i;
      }
    }
    EXPECT_NO_THROW(cfg.Validate()) << "seed " << seed;
  }
}

// Golden derivations: a change to FromSeed would silently move every
// seeded crash point — the torture sweep's and the KV recovery test's.
// Seeds 6 and 32 exercise the duplicate-point fix-up (the second event
// moves on by one), seed 34 at two processors the survivor fix-up (the
// first event moves off the barrier that would kill both).
TEST(RecoveryDeterminism, SeededSchedulesMatchGoldenEvents) {
  struct Golden {
    std::uint64_t seed;
    int num_procs;
    Events events;
  };
  const Golden kGolden[] = {
      {4, 4, {{kBarrier, 1, 3}, {kRelease, 0, 2}}},
      {6, 4, {{kRelease, 3, 4}, {kRelease, 3, 5}, {kRelease, 0, 7}}},
      {32, 4, {{kBarrier, 1, 4}, {kBarrier, 1, 5}}},
      {34, 2, {{kBarrier, 0, 2}, {kBarrier, 1, 1}, {kBarrier, 0, 3}}},
      {0x6b760d5eedull, 4, {{kRelease, 1, 4}, {kRelease, 3, 1}}},
  };
  for (const Golden& g : kGolden) {
    const FaultSchedule s = FaultSchedule::FromSeed(g.seed, g.num_procs);
    EXPECT_EQ(s.events, g.events)
        << "seed " << g.seed << " @ " << g.num_procs << ": " << s.Label();
  }
}

// Parse is the inverse of Label: the committed bench_wallclock fault-row
// specs and seeded schedules all round-trip to the same events, and
// "seed:S" is FromSeed(S, n).
TEST(FaultScheduleSpec, ParseInvertsLabel) {
  const struct {
    const char* spec;
    Events events;
  } kBenchRows[] = {
      {"barrier:1@4", {{kBarrier, 1, 4}}},
      {"release:1@8", {{kRelease, 1, 8}}},
      {"barrier:0@4+release:2@6", {{kBarrier, 0, 4}, {kRelease, 2, 6}}},
  };
  for (const auto& row : kBenchRows) {
    const FaultSchedule s = FaultSchedule::Parse(row.spec, 8);
    EXPECT_EQ(s.events, row.events) << row.spec;
    EXPECT_EQ(s.Label(), row.spec);
  }
  for (int n : {2, 3, 4, 8}) {
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
      const FaultSchedule s = FaultSchedule::FromSeed(seed, n);
      EXPECT_EQ(FaultSchedule::Parse(s.Label(), n).events, s.events)
          << s.Label();
      EXPECT_EQ(FaultSchedule::Parse("seed:" + std::to_string(seed), n).events,
                s.events)
          << "seed " << seed << " @ " << n;
    }
  }
  EXPECT_EQ(FaultSchedule{}.Label(), "none");
}

// --- coordinator failover ----------------------------------------------------
//
// Proc 0 hosts the barrier manager, the serial GC pass, the checkpoint
// watermark and the HLRC prune; killing it must hand those roles to the
// lowest surviving rank for the crash barrier and hand them back after
// the rebuild — with the shared results still bit-identical to the
// failure-free run.
TEST(CoordinatorFailover, ProcZeroCrashMatchesFailureFree) {
  for (BackendKind backend : {BackendKind::kLrc, BackendKind::kHlrc}) {
    const std::string where =
        backend == BackendKind::kLrc ? "LRC" : "HLRC";
    const EpochOutcome fault = RunEpochs(backend, {{kBarrier, 0, 3}});
    const EpochOutcome clean = RunEpochs(backend, {});
    ExpectEpochValues(fault, where + " proc-0 at-barrier");
    EXPECT_EQ(fault.victim_saw, clean.victim_saw) << where;
    EXPECT_EQ(fault.peer_saw, clean.peer_saw) << where;
    EXPECT_EQ(fault.stats.comm.recoveries, 1u) << where;
  }
}

TEST(CoordinatorFailover, ProcZeroAfterReleaseCrashRecovers) {
  // After-release crashes never involve the barrier manager mid-flight;
  // this pins the proc-0 rebuild path itself (its own archive feeds the
  // replay under LRC).
  for (BackendKind backend : {BackendKind::kLrc, BackendKind::kHlrc}) {
    const EpochOutcome fault = RunEpochs(backend, {{kRelease, 0, 2}});
    const EpochOutcome clean = RunEpochs(backend, {});
    EXPECT_EQ(fault.victim_saw, clean.victim_saw);
    EXPECT_EQ(fault.peer_saw, clean.peer_saw);
    EXPECT_EQ(fault.stats.comm.recoveries, 1u);
  }
}

// --- HLRC home-crash re-homing -----------------------------------------------
//
// Every armed HLRC victim is also a home under the pure block map, so its
// units are reconstructed from surviving sharers and re-homed through the
// override table; survivors (and the rebuilt victim) learn the new map
// lazily, paying the modelled timeout + retransmit on their first home
// contact after the re-home batch applies.
TEST(HlrcHomeCrash, RehomedUnitsChargeRetransmits) {
  const EpochOutcome fault =
      RunEpochs(BackendKind::kHlrc, {{kBarrier, 1, 3}});
  const EpochOutcome clean = RunEpochs(BackendKind::kHlrc, {});
  ExpectEpochValues(fault, "hlrc home crash");
  EXPECT_EQ(fault.victim_saw, clean.victim_saw);
  EXPECT_EQ(fault.peer_saw, clean.peer_saw);
  EXPECT_EQ(fault.stats.comm.recoveries, 1u);
  // The epoch program keeps flushing after the crash barrier, so at least
  // one survivor hits a moved home and pays the retransmit.
  EXPECT_GT(fault.stats.comm.recovery_retransmits, 0u);
  EXPECT_GT(fault.stats.comm.recovery_retransmit_bytes, 0u);
  EXPECT_EQ(clean.stats.comm.recovery_retransmits, 0u);
}

// --- multi-fault schedules ---------------------------------------------------

TEST(MultiFaultSchedules, SameVictimTwiceRecoversTwice) {
  // Satellite 6 regression: the per-event fired flags make re-arming a
  // recovered victim race-free — the second event must fire exactly once,
  // after (and only after) the first recovery completed.
  const Events sched = {{kBarrier, 1, 2}, {kBarrier, 1, 5}};
  for (BackendKind backend : {BackendKind::kLrc, BackendKind::kHlrc}) {
    const std::string where =
        backend == BackendKind::kLrc ? "LRC" : "HLRC";
    const EpochOutcome fault = RunEpochs(backend, sched);
    const EpochOutcome clean = RunEpochs(backend, {});
    ExpectEpochValues(fault, where + " same victim twice");
    EXPECT_EQ(fault.victim_saw, clean.victim_saw) << where;
    EXPECT_EQ(fault.peer_saw, clean.peer_saw) << where;
    EXPECT_EQ(fault.stats.comm.recoveries, 2u) << where;
  }
}

TEST(MultiFaultSchedules, ThreeVictimsMixedKindsAcrossBackends) {
  const Events sched = {{kBarrier, 0, 2}, {kRelease, 1, 4}, {kBarrier, 2, 6}};
  for (BackendKind backend : {BackendKind::kLrc, BackendKind::kHlrc}) {
    const std::string where =
        backend == BackendKind::kLrc ? "LRC" : "HLRC";
    const EpochOutcome fault = RunEpochs(backend, sched);
    const EpochOutcome clean = RunEpochs(backend, {});
    ExpectEpochValues(fault, where + " three victims");
    EXPECT_EQ(fault.victim_saw, clean.victim_saw) << where;
    EXPECT_EQ(fault.peer_saw, clean.peer_saw) << where;
    EXPECT_EQ(fault.stats.comm.recoveries, 3u) << where;
    EXPECT_GT(fault.stats.comm.recovery_modelled_ns, 0u) << where;
  }
}

// --- seeded torture sweep ----------------------------------------------------
//
// ≥32 random schedules (1–3 faults, any victims, both crash kinds) × both
// protocol backends × 3 deterministic apps: the post-recovery checksum
// must equal the failure-free run and the same seed twice must be
// bit-identical, recovery telemetry included.
TEST(RecoveryTorture, RandomSchedulesRecoverBitIdentical) {
  const char* kTortureApps[] = {"Jacobi", "MGS", "Shallow"};
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const std::string app = kTortureApps[seed % 3];
    for (BackendKind backend : {BackendKind::kLrc, BackendKind::kHlrc}) {
      const std::string where =
          app + " seed " + std::to_string(seed) +
          (backend == BackendKind::kLrc ? " LRC" : " HLRC");
      RuntimeConfig cfg;
      cfg.num_procs = 4;
      cfg.backend = backend;

      auto clean_app = MakeApp(app, "tiny");
      const AppRun clean = Execute(*clean_app, cfg);

      cfg.fault = FaultSchedule::FromSeed(seed, cfg.num_procs);
      auto app_a = MakeApp(app, "tiny");
      const AppRun a = Execute(*app_a, cfg);
      auto app_b = MakeApp(app, "tiny");
      const AppRun b = Execute(*app_b, cfg);

      // An event whose trigger point lies beyond the app's run never
      // fires; whatever DID fire must have recovered cleanly.
      EXPECT_EQ(a.result, clean.result) << where;
      EXPECT_EQ(a.result, b.result) << where;
      EXPECT_EQ(ModelledStateDiff(a.stats, b.stats), "") << where;
      EXPECT_LE(a.stats.comm.recoveries, cfg.fault.events.size()) << where;
    }
  }
}

// --- validation --------------------------------------------------------------

TEST(RecoveryValidation, LrcWithoutGcFailsFastWithClearError) {
  RuntimeConfig cfg;
  cfg.num_procs = 4;
  cfg.gc_interval_barriers = 0;  // no GC → no canonical-base checkpoints
  cfg.fault.events = {{kBarrier, 1, 1}};
  try {
    Runtime rt(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no checkpoint available"),
              std::string::npos)
        << e.what();
  }
}

TEST(RecoveryValidation, HlrcWithoutGcAcceptsArmedSchedules) {
  // Satellite 1: the no-checkpoint rejection is LRC-only.  HLRC recovery
  // reads home images, not canonical-base checkpoints, so an armed
  // schedule with the archive GC disabled must be accepted — and recover.
  const EpochOutcome fault = RunEpochs(
      BackendKind::kHlrc, {{kBarrier, 1, 3}}, /*gc_interval=*/0);
  const EpochOutcome clean =
      RunEpochs(BackendKind::kHlrc, {}, /*gc_interval=*/0);
  ExpectEpochValues(fault, "hlrc gc=0");
  EXPECT_EQ(fault.victim_saw, clean.victim_saw);
  EXPECT_EQ(fault.peer_saw, clean.peer_saw);
  EXPECT_EQ(fault.stats.comm.recoveries, 1u);
}

TEST(RecoveryValidation, ReferenceBackendRejectsFaultSchedules) {
  RuntimeConfig cfg;
  cfg.num_procs = 4;
  cfg.backend = BackendKind::kReference;
  cfg.fault.events = {{kBarrier, 1, 1}};
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);
}

// --- telemetry gating --------------------------------------------------------
//
// PR 5's zero-entry skip rule: recovery counters appear in ToString only
// when a fault actually fired, so no-fault output is byte-identical to
// builds that predate the subsystem.
TEST(RecoveryTelemetry, EmittedOnlyWhenAFaultFired) {
  const EpochOutcome clean = RunEpochs(BackendKind::kLrc, {});
  EXPECT_EQ(clean.stats.ToString().find("recovery"), std::string::npos);
  EXPECT_EQ(clean.stats.comm.ToString().find("recovery"), std::string::npos);
  EXPECT_EQ(clean.stats.comm.recovery_modelled_ns, 0u);
  EXPECT_EQ(clean.stats.recovery_wall_ns, 0u);

  const EpochOutcome fault = RunEpochs(BackendKind::kLrc, {{kBarrier, 1, 3}});
  EXPECT_NE(fault.stats.ToString().find("recovery host time: "),
            std::string::npos);
  EXPECT_NE(fault.stats.comm.ToString().find("recovery: recoveries=1"),
            std::string::npos);
  // Recovery messages count toward the totals but stay outside the
  // reader-side delivered-byte taxonomy.
  EXPECT_EQ(fault.stats.comm.total_data_bytes(),
            fault.stats.comm.delivered_data_bytes);
}

}  // namespace
}  // namespace dsm::apps
