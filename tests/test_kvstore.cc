// KV workload gates (DESIGN.md §11) — the ROADMAP's "serve real traffic"
// frontier, with the PR 9 race detector as its day-one safety net:
//
//   * the full 3-backend × 3-aggregation conformance sweep runs with
//     race_check = true in EVERY cell: checksums bit-identical (the
//     commuting-checksum construction), zero race reports (fine-grained
//     shard locking certified, not assumed),
//   * RacyKv — the deliberately under-locked variant (a stats word
//     updated outside the shard lock) — must be reported EXACTLY:
//     every planted race, nothing else, in every cell,
//   * armed multi-fault crash schedules (barrier crash, after-release
//     crash, proc-0 coordinator failover, and an HLRC shard-home crash)
//     recover to the failure-free checksum bit-for-bit, twice-run
//     same-seed schedules agree, and recovery manufactures no race
//     reports — the PR 8 torture pattern extended to a lock-dominated
//     request workload,
//   * the bench mixes really are the scale the ROADMAP asks for
//     (>= 1M modelled requests per bench_wallclock --slice=kv row).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/kvstore.h"
#include "apps/registry.h"
#include "core/fault.h"
#include "test_matrix.h"

namespace dsm::apps {
namespace {

// --- correctly-locked KV: exact checksums, certified race-free ---------------

TEST(KvConformance, AllCellsBitIdenticalAndRaceFree) {
  ConformanceScenario scenario;
  for (const ConformanceScenario& s : ConformanceScenarios()) {
    if (s.app == "KV") scenario = s;
  }
  ASSERT_EQ(scenario.app, "KV") << "KV missing from ConformanceScenarios()";

  double first = 0.0;
  bool have_first = false;
  for (BackendKind backend : kBackends) {
    for (const AggPoint& agg : kAggs) {
      const RuntimeConfig cfg = CellConfig(backend, agg, scenario.num_procs);
      const std::string where =
          std::string("KV @ ") + agg.label + "/" + cfg.BackendLabel();
      KvStore app(KvDataset(scenario.dataset));
      const AppRun run = Execute(app, cfg);

      ASSERT_TRUE(run.stats.races.checked) << where;
      EXPECT_TRUE(run.stats.races.reports.empty())
          << where << " reported:\n"
          << ReportDump(run.stats.races);
      EXPECT_EQ(run.stats.races.dropped, 0u) << where;

      EXPECT_EQ(run.result, scenario.checksum) << where;
      if (!have_first) {
        first = run.result;
        have_first = true;
        EXPECT_NE(run.result, 0.0) << where;
      } else {
        EXPECT_EQ(run.result, first) << where;
      }

      // Request traffic must actually exercise the protocol cells.
      if (backend == BackendKind::kReference) {
        EXPECT_EQ(run.stats.net.total_messages(), 0u) << where;
      } else {
        EXPECT_GT(run.stats.net.total_messages(), 0u) << where;
        EXPECT_GT(run.stats.comm.sync_messages, 0u) << where;
      }
    }
  }
}

// --- RacyKv: the under-locked fast path is caught, exactly -------------------

TEST(RacyKvDetector, InjectedScheduleReportedExactlyEverywhere) {
  double first_result = 0.0;
  bool have_first = false;
  for (BackendKind backend : kBackends) {
    for (const AggPoint& agg : kAggs) {
      const RuntimeConfig cfg = CellConfig(backend, agg, 4);
      const std::string where =
          std::string("RacyKv @ ") + agg.label + "/" + cfg.BackendLabel();
      RacyKv app(KvDataset("tiny"));
      const AppRun run = Execute(app, cfg);

      ASSERT_TRUE(run.stats.races.checked) << where;
      EXPECT_EQ(run.stats.races.dropped, 0u) << where;
      const std::vector<RaceReport> expected =
          app.ExpectedRaces(cfg.num_procs, cfg.unit_bytes());
      ASSERT_FALSE(expected.empty()) << where;
      EXPECT_EQ(run.stats.races.reports, expected)
          << where << "\ngot:\n"
          << ReportDump(run.stats.races);

      // The racy stats words never feed the checksum: the result stays
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

TEST(RacyKvDetector, ReportsAreRunToRunDeterministic) {
  // Same seed, same config → the identical report list, order included —
  // even though the shard-lock chains around the planted accesses are
  // host-scheduled (the racy accesses happen at sub-phase 0, before any
  // lock of their phase).
  std::vector<RaceReport> first;
  for (int round = 0; round < 3; ++round) {
    const RuntimeConfig cfg = CellConfig(BackendKind::kLrc, kAggs[0], 4);
    RacyKv app(KvDataset("tiny"));
    const AppRun run = Execute(app, cfg);
    if (round == 0) {
      first = run.stats.races.reports;
      ASSERT_FALSE(first.empty());
    } else {
      EXPECT_EQ(run.stats.races.reports, first) << "round " << round;
    }
  }
}

// --- KV under armed crash schedules ------------------------------------------

// The multi-fault matrix: a mid-phase barrier crash plus an
// after-release crash of a second victim (the lock-dominated stream
// closes an interval at every Unlock, so release triggers land inside
// the request traffic), a proc-0 crash (coordinator failover), and — on
// HLRC, where every processor homes a slice of the table — a shard-home
// crash that forces home reconstruction and re-homing under live
// request traffic.
std::vector<FaultSchedule> KvSchedules(BackendKind backend) {
  std::vector<FaultSchedule> out;
  out.push_back({.events = {{FaultPoint::kAtBarrier, 1, 2},
                            {FaultPoint::kAfterRelease, 3, 500}}});
  out.push_back({.events = {{FaultPoint::kAtBarrier, 0, 3}}});
  if (backend == BackendKind::kHlrc) {
    out.push_back({.events = {{FaultPoint::kAtBarrier, 2, 4}}});
  }
  return out;
}

TEST(KvFaultRecovery, MultiFaultChecksumMatchesFailureFreeEverywhere) {
  for (BackendKind backend : {BackendKind::kLrc, BackendKind::kHlrc}) {
    RuntimeConfig base = CellConfig(backend, kAggs[0], 4);
    KvStore clean(KvDataset("tiny"));
    const AppRun clean_run = Execute(clean, base);
    ASSERT_NE(clean_run.result, 0.0);

    for (const FaultSchedule& sched : KvSchedules(backend)) {
      RuntimeConfig cfg = base;
      cfg.fault = sched;
      const std::string where = std::string("KV @ ") + cfg.BackendLabel() +
                                " fault " + sched.Label();
      KvStore app(KvDataset("tiny"));
      const AppRun run = Execute(app, cfg);
      EXPECT_GT(run.stats.comm.recoveries, 0u) << where;
      // The commuting checksum recovers bit-for-bit: every surviving
      // delta is still applied exactly once, and the rebuilt victim
      // replays its own archived/homed history.
      EXPECT_EQ(run.result, clean_run.result) << where;
      // Recovery must not manufacture race reports (the crash sweep
      // publishes the victim's clocks on its force-released shard locks).
      ASSERT_TRUE(run.stats.races.checked) << where;
      EXPECT_TRUE(run.stats.races.reports.empty())
          << where << " reported:\n"
          << ReportDump(run.stats.races);
    }
  }
}

TEST(KvFaultRecovery, SameScheduleTwiceSameChecksum) {
  // The PR 8 same-seed gate, scoped to what a lock app can promise: the
  // modelled state follows the host's grant order (never bit-stable for
  // lock programs), but the checksum must be bit-identical run to run
  // under the identical armed schedule.
  for (BackendKind backend : {BackendKind::kLrc, BackendKind::kHlrc}) {
    RuntimeConfig cfg = CellConfig(backend, kAggs[0], 4);
    cfg.fault = FaultSchedule::FromSeed(0x6b760d5eedull, cfg.num_procs);
    double first = 0.0;
    for (int round = 0; round < 2; ++round) {
      KvStore app(KvDataset("tiny"));
      const AppRun run = Execute(app, cfg);
      EXPECT_GT(run.stats.comm.recoveries, 0u)
          << cfg.BackendLabel() << " round " << round;
      if (round == 0) {
        first = run.result;
      } else {
        EXPECT_EQ(run.result, first) << cfg.BackendLabel();
      }
    }
  }
}

// --- the bench mixes are really request-scale --------------------------------

TEST(KvSweepDatasets, BenchMixesDriveAtLeastAMillionRequests) {
  for (const char* label : {"read-mostly", "write-heavy", "hot"}) {
    KvStore app(KvDataset(label));
    EXPECT_GE(app.ModelledRequests(8), 1'000'000u) << label;
    // The three mixes must really differ along the axes they are named
    // for (a renamed copy of one mix would silently hollow the sweep).
    const KvParams& p = app.params();
    if (std::string(label) == "read-mostly") {
      EXPECT_GE(p.read_percent, 90);
    }
    if (std::string(label) == "write-heavy") {
      EXPECT_LE(p.read_percent, 30);
    }
    if (std::string(label) == "hot") {
      EXPECT_GE(p.hot_percent, 50);
    }
  }
}

}  // namespace
}  // namespace dsm::apps
