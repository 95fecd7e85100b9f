// Happens-before race detector (DESIGN.md §10).  The gates:
//
//   * RacyFuzz's injected schedule is reported EXACTLY — every planted
//     race, nothing else — under every backend × aggregation cell, with
//     the reference backend acting as the ordering oracle,
//   * every conformance app is certified race-free across the full
//     backend × aggregation matrix (zero reports), including under an
//     armed crash schedule (recovery must not manufacture reports),
//   * the checker is purely observational: modelled state is bit-identical
//     with race_check on and off, for a barrier app and a lock app alike,
//   * detector mechanics (epoch coverage, read-vector inflation, lock and
//     barrier ordering, observation-order normalization) hold on the raw
//     RaceDetector API.
#include <gtest/gtest.h>

#include <cctype>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/race_detector.h"
#include "apps/fuzz.h"
#include "apps/registry.h"
#include "test_matrix.h"

namespace dsm::apps {
namespace {

// --- injected races: exact match across the full matrix ----------------------

TEST(RacyFuzz, InjectedScheduleReportedExactlyEverywhere) {
  double first_result = 0.0;
  bool have_first = false;
  for (BackendKind backend : kBackends) {
    for (const AggPoint& agg : kAggs) {
      const RuntimeConfig cfg = CellConfig(backend, agg, 4);
      const std::string where =
          std::string("RacyFuzz @ ") + agg.label + "/" + cfg.BackendLabel();
      RacyFuzz app(FuzzDataset("tiny"));
      const AppRun run = Execute(app, cfg);

      ASSERT_TRUE(run.stats.races.checked) << where;
      EXPECT_EQ(run.stats.races.dropped, 0u) << where;
      const std::vector<RaceReport> expected =
          app.ExpectedRaces(cfg.num_procs, cfg.unit_bytes());
      ASSERT_FALSE(expected.empty()) << where;
      EXPECT_EQ(run.stats.races.reports, expected)
          << where << "\ngot:\n"
          << ReportDump(run.stats.races);

      // The racy values never feed the checksum, so the result stays
      // bit-identical across every cell even though the program races.
      if (!have_first) {
        first_result = run.result;
        have_first = true;
        EXPECT_NE(run.result, 0.0) << where;
      } else {
        EXPECT_EQ(run.result, first_result) << where;
      }
    }
  }
}

TEST(RacyFuzz, ReportsAreRunToRunDeterministic) {
  // Same seed, same config → the identical report list, order included.
  std::vector<RaceReport> first;
  for (int round = 0; round < 3; ++round) {
    const RuntimeConfig cfg = CellConfig(BackendKind::kLrc, kAggs[0], 4);
    RacyFuzz app(FuzzDataset("tiny"));
    const AppRun run = Execute(app, cfg);
    if (round == 0) {
      first = run.stats.races.reports;
      ASSERT_FALSE(first.empty());
    } else {
      EXPECT_EQ(run.stats.races.reports, first) << "round " << round;
    }
  }
}

TEST(RacyFuzz, StillExactUnderAnArmedCrashSchedule) {
  // A crash + transparent recovery must neither lose an injected race nor
  // add one: recovery replay bypasses the access hooks, and the crash
  // sweep republishes the victim's lock clocks (no locks here, but the
  // barrier-crash path exercises the clock hand-off through recovery).
  RuntimeConfig cfg = CellConfig(BackendKind::kHlrc, kAggs[0], 4);
  cfg.fault.events = {{FaultPoint::kAtBarrier, /*victim=*/1, /*at=*/4}};
  RacyFuzz app(FuzzDataset("tiny"));
  const AppRun run = Execute(app, cfg);
  ASSERT_TRUE(run.stats.races.checked);
  EXPECT_GT(run.stats.comm.recoveries, 0u);
  EXPECT_EQ(run.stats.races.reports,
            app.ExpectedRaces(cfg.num_procs, cfg.unit_bytes()))
      << "got:\n"
      << ReportDump(run.stats.races);
}

// --- the conformance suite is certified race-free ----------------------------

class RaceFreeSuiteTest
    : public ::testing::TestWithParam<ConformanceScenario> {};

TEST_P(RaceFreeSuiteTest, ZeroReportsAcrossTheMatrix) {
  const ConformanceScenario& s = GetParam();
  for (BackendKind backend : kBackends) {
    for (const AggPoint& agg : kAggs) {
      const RuntimeConfig cfg = CellConfig(backend, agg, s.num_procs);
      const std::string where = s.app + " @ " + std::string(agg.label) + "/" +
                                cfg.BackendLabel();
      auto app = MakeApp(s.app, s.dataset);
      const AppRun run = Execute(*app, cfg);
      ASSERT_TRUE(run.stats.races.checked) << where;
      EXPECT_TRUE(run.stats.races.reports.empty())
          << where << " reported:\n"
          << ReportDump(run.stats.races);
      EXPECT_EQ(run.stats.races.dropped, 0u) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, RaceFreeSuiteTest, ::testing::ValuesIn(ConformanceScenarios()),
    [](const ::testing::TestParamInfo<ConformanceScenario>& info) {
      std::string name = info.param.app;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(RaceFreeSuite, ZeroReportsUnderCrashSchedules) {
  // Recovery must not self-report: a barrier-point crash under LRC
  // (checkpoint replay) and a mid-interval crash of a lock-heavy app
  // under both protocol backends (force-released locks go through the
  // crash sweep) all stay clean.
  struct Case {
    const char* app;
    const char* dataset;
    BackendKind backend;
    FaultSchedule::Event event;
  };
  const Case cases[] = {
      {"Jacobi", "tiny", BackendKind::kLrc, {FaultPoint::kAtBarrier, 1, 2}},
      {"Fuzz", "tiny", BackendKind::kLrc, {FaultPoint::kAfterRelease, 2, 5}},
      {"Fuzz", "tiny", BackendKind::kHlrc, {FaultPoint::kAfterRelease, 2, 5}},
  };
  for (const Case& c : cases) {
    RuntimeConfig cfg = CellConfig(c.backend, kAggs[0], 4);
    cfg.fault.events = {c.event};
    if (c.backend == BackendKind::kLrc) cfg.gc_interval_barriers = 2;
    const std::string where = std::string(c.app) + " @ " +
                              cfg.BackendLabel() + " fault " +
                              cfg.fault.Label();
    auto app = MakeApp(c.app, c.dataset);
    const AppRun run = Execute(*app, cfg);
    ASSERT_TRUE(run.stats.races.checked) << where;
    EXPECT_GT(run.stats.comm.recoveries, 0u) << where;
    EXPECT_TRUE(run.stats.races.reports.empty())
        << where << " reported:\n"
        << ReportDump(run.stats.races);
  }
}

// --- the checker is purely observational -------------------------------------

TEST(RaceCheckObservational, BarrierAppModelledStateBitIdenticalOnAndOff) {
  // Jacobi's modelled state is run-to-run stable, so every modelled
  // number must be bit-identical with the checker on and off.
  for (BackendKind backend : {BackendKind::kLrc, BackendKind::kHlrc}) {
    AppRun runs[2];
    for (int on = 0; on < 2; ++on) {
      RuntimeConfig cfg = CellConfig(backend, kAggs[0], 4);
      cfg.race_check = on != 0;
      auto app = MakeApp("Jacobi", "tiny");
      runs[on] = Execute(*app, cfg);
    }
    const std::string where =
        std::string("Jacobi @ ") +
        (backend == BackendKind::kHlrc ? "HLRC" : "LRC");
    EXPECT_EQ(runs[0].result, runs[1].result) << where;
    EXPECT_EQ(ModelledStateDiff(runs[0].stats, runs[1].stats), "") << where;
    EXPECT_FALSE(runs[0].stats.races.checked) << where;
    ASSERT_TRUE(runs[1].stats.races.checked) << where;
    EXPECT_TRUE(runs[1].stats.races.reports.empty()) << where;
  }
}

TEST(RaceCheckObservational, LockChainModelledStateBitIdenticalOnAndOff) {
  // Fuzz's lock statistics are host-order dependent (grant order follows
  // arrival order), so its A/B below compares the checksum only.  The
  // lock-path bit-identity gate instead uses a chain with exactly one
  // contender per barrier interval — grant order, chain positions and
  // therefore every modelled number are deterministic.
  for (BackendKind backend : {BackendKind::kLrc, BackendKind::kHlrc}) {
    RunStats stats[2];
    int results[2] = {0, 0};
    for (int on = 0; on < 2; ++on) {
      RuntimeConfig cfg = CellConfig(backend, kAggs[0], 4);
      cfg.race_check = on != 0;
      cfg.heap_bytes = 1u << 20;
      Runtime rt(cfg);
      auto data = rt.Alloc<int>(64, "chain");
      std::mutex mu;
      rt.Run([&](Proc& p) {
        for (int round = 0; round < 12; ++round) {
          if (p.id() == round % p.nprocs()) {
            p.Lock(0);
            const int v = p.Read(data, 0);
            p.Write(data, 0, v + round + 1);
            p.Unlock(0);
          }
          p.Barrier();
        }
        if (p.id() == 0) {
          std::lock_guard<std::mutex> g(mu);
          results[on] = p.Read(data, 0);
        }
      });
      stats[on] = rt.CollectStats();
    }
    const std::string where =
        std::string("lock-chain @ ") +
        (backend == BackendKind::kHlrc ? "HLRC" : "LRC");
    EXPECT_EQ(results[0], results[1]) << where;
    EXPECT_EQ(results[0], 78) << where;  // 1 + 2 + ... + 12
    EXPECT_EQ(ModelledStateDiff(stats[0], stats[1]), "") << where;
    EXPECT_FALSE(stats[0].races.checked) << where;
    ASSERT_TRUE(stats[1].races.checked) << where;
    EXPECT_TRUE(stats[1].races.reports.empty()) << where;
  }
}

TEST(RaceCheckObservational, LockAppChecksumIdenticalOnAndOffAndClean) {
  // Fuzz's checksum commutes across lock schedules, so the result must
  // survive the checker even though its modelled statistics are
  // host-order dependent.
  for (BackendKind backend : {BackendKind::kLrc, BackendKind::kHlrc}) {
    AppRun runs[2];
    for (int on = 0; on < 2; ++on) {
      RuntimeConfig cfg = CellConfig(backend, kAggs[0], 4);
      cfg.race_check = on != 0;
      auto app = MakeApp("Fuzz", "tiny");
      runs[on] = Execute(*app, cfg);
    }
    const std::string where =
        std::string("Fuzz @ ") +
        (backend == BackendKind::kHlrc ? "HLRC" : "LRC");
    EXPECT_EQ(runs[0].result, runs[1].result) << where;
    ASSERT_TRUE(runs[1].stats.races.checked) << where;
    EXPECT_TRUE(runs[1].stats.races.reports.empty())
        << where << " reported:\n"
        << ReportDump(runs[1].stats.races);
  }
}

TEST(RaceCheckObservational, StatsLineAppearsOnlyWhenChecked) {
  RuntimeConfig off = CellConfig(BackendKind::kLrc, kAggs[0], 4);
  off.race_check = false;
  auto app_off = MakeApp("Jacobi", "tiny");
  const AppRun run_off = Execute(*app_off, off);
  EXPECT_EQ(run_off.stats.ToString().find("races:"), std::string::npos);

  const RuntimeConfig on = CellConfig(BackendKind::kLrc, kAggs[0], 4);
  auto app_on = MakeApp("Jacobi", "tiny");
  const AppRun run_on = Execute(*app_on, on);
  EXPECT_NE(run_on.stats.ToString().find("races: 0"), std::string::npos);
}

}  // namespace
}  // namespace dsm::apps

// --- raw detector mechanics --------------------------------------------------

namespace dsm {
namespace {

constexpr UnitId kUnit = 0;
constexpr std::uint32_t kWord = 0;

// The detector holds mutexes (immovable); tests construct it in place.
struct DetectorFixture {
  explicit DetectorFixture(int procs = 2)
      : det(procs, /*num_units=*/4, /*words_per_unit=*/1024,
            /*num_locks=*/4) {}
  RaceDetector det;
};

TEST(RaceDetectorMechanics, UnorderedWriteWriteIsOneReport) {
  DetectorFixture f;
  RaceDetector& det = f.det;
  det.OnAccess(0, kUnit, kWord, 1, /*is_write=*/true);
  det.OnAccess(1, kUnit, kWord, 1, /*is_write=*/true);
  ASSERT_EQ(det.report_count(), 1u);
  const RaceStats stats = det.Collect();
  const RaceReport& r = stats.reports[0];
  EXPECT_EQ(r.first, (RaceSite{0, true, 0, 0}));
  EXPECT_EQ(r.second, (RaceSite{1, true, 0, 0}));
}

TEST(RaceDetectorMechanics, NormalizationIsObservationOrderIndependent) {
  DetectorFixture ff, fr;
  RaceDetector& forward = ff.det;
  forward.OnAccess(0, kUnit, kWord, 1, true);
  forward.OnAccess(1, kUnit, kWord, 1, true);
  RaceDetector& reversed = fr.det;
  reversed.OnAccess(1, kUnit, kWord, 1, true);
  reversed.OnAccess(0, kUnit, kWord, 1, true);
  EXPECT_EQ(forward.Collect().reports, reversed.Collect().reports);
}

TEST(RaceDetectorMechanics, BarrierOrdersAccesses) {
  DetectorFixture f;
  RaceDetector& det = f.det;
  det.OnAccess(0, kUnit, kWord, 1, true);
  det.OnBarrierArrive(0);
  det.OnBarrierArrive(1);
  det.OnBarrierDepart(0);
  det.OnBarrierDepart(1);
  det.OnAccess(1, kUnit, kWord, 1, true);
  EXPECT_EQ(det.report_count(), 0u);
}

TEST(RaceDetectorMechanics, LockChainOrdersAccesses) {
  DetectorFixture f;
  RaceDetector& det = f.det;
  det.OnLockAcquire(0, /*lock_id=*/0, /*cached=*/false, /*chain_pos=*/0);
  det.OnAccess(0, kUnit, kWord, 1, true);
  det.OnLockRelease(0, 0);
  det.OnLockAcquire(1, 0, /*cached=*/false, /*chain_pos=*/1);
  det.OnAccess(1, kUnit, kWord, 1, true);
  det.OnLockRelease(1, 0);
  EXPECT_EQ(det.report_count(), 0u);

  // A DIFFERENT lock orders nothing: the same pattern on word 1 under
  // disjoint locks must report, stamped with the acquires' chain
  // positions as sub-phases.
  det.OnLockAcquire(0, 1, false, /*chain_pos=*/0);
  det.OnAccess(0, kUnit, kWord + 1, 1, true);
  det.OnLockRelease(0, 1);
  det.OnLockAcquire(1, 2, false, /*chain_pos=*/0);
  det.OnAccess(1, kUnit, kWord + 1, 1, true);
  det.OnLockRelease(1, 2);
  ASSERT_EQ(det.report_count(), 1u);
}

TEST(RaceDetectorMechanics, ConcurrentReadersInflateAndWriterReportsBoth) {
  DetectorFixture f(3);
  RaceDetector& det = f.det;
  det.OnAccess(0, kUnit, kWord, 1, /*is_write=*/false);
  det.OnAccess(1, kUnit, kWord, 1, /*is_write=*/false);  // inflates
  EXPECT_EQ(det.report_count(), 0u);  // reads never race with reads
  det.OnAccess(2, kUnit, kWord, 1, /*is_write=*/true);
  const RaceStats stats = det.Collect();
  ASSERT_EQ(stats.reports.size(), 2u);
  EXPECT_EQ(stats.reports[0].first.proc, 0);
  EXPECT_EQ(stats.reports[1].first.proc, 1);
  for (const RaceReport& r : stats.reports) {
    EXPECT_FALSE(r.first.is_write);
    EXPECT_EQ(r.second, (RaceSite{2, true, 0, 0}));
  }
}

TEST(RaceDetectorMechanics, SameEpochAccessesAndRangesDeduplicate) {
  DetectorFixture f;
  RaceDetector& det = f.det;
  // A multi-word racy range is one report per word, deduped across
  // repeats within the same epoch.
  det.OnAccess(0, kUnit, kWord, 4, true);
  det.OnAccess(0, kUnit, kWord, 4, true);  // same epoch: no-op
  det.OnAccess(1, kUnit, kWord, 4, true);
  det.OnAccess(1, kUnit, kWord, 4, true);
  EXPECT_EQ(det.report_count(), 4u);
}

TEST(RaceDetectorMechanics, CrashSweepPublishesHeldLockClocks) {
  // P0 acquires a lock, writes, then crashes while holding it.  The
  // sweep must publish P0's clock on the lock so P1's post-crash grant
  // is ordered after P0's write — exactly what P0's own release would
  // have published.
  DetectorFixture f;
  RaceDetector& det = f.det;
  det.OnLockAcquire(0, 0, false, 0);
  det.OnAccess(0, kUnit, kWord, 1, true);
  det.OnCrashSweep(0);
  det.OnLockAcquire(1, 0, false, 1);
  det.OnAccess(1, kUnit, kWord, 1, true);
  EXPECT_EQ(det.report_count(), 0u);
}

}  // namespace
}  // namespace dsm
