// Application factory: name + dataset → Application instance, plus the
// catalogue of every cell the bench drivers run.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apps/app_common.h"

namespace dsm::apps {

// Throws CheckError on unknown names.
std::unique_ptr<Application> MakeApp(const std::string& app,
                                     const std::string& dataset);

// --- bench cell catalogue ---------------------------------------------------
// One cell of a bench driver: an (app, dataset) run at one consistency
// unit, backend, processor count and crash schedule.  Every cell that
// bench_wallclock and the paper benches (bench_fig1/2/3, bench_table1,
// bench_ablation_dyn) run is declared once, in BenchCells(); each driver
// selects its cells by slice tag.
struct BenchCell {
  std::string app;
  std::string dataset;
  std::string unit;     // "4K", "8K", "16K" or "Dyn"
  std::string backend;  // "LRC" or "HLRC"
  int procs = 8;
  std::string fault = "";  // crash-schedule spec, "" = failure-free
  int gc_lag = 0;          // gc_lag_barriers override, 0 = the default
  // The app's ConformanceScenario::modelled_stable: the bench gate
  // bit-compares the cell's modelled state only when it is set.
  bool stable = false;
  std::vector<std::string> slices = {};

  // The cell's config.  Throws std::invalid_argument for an unknown unit
  // or backend label or a malformed fault spec (FaultSchedule::Parse),
  // but leaves range checks to Validate().
  RuntimeConfig Config() const;
  // The key the bench gate matches rows by, e.g. "Jacobi/1Kx1K/4K/LRC/p8",
  // then any fault spec and " lag=N".
  std::string Key() const;
};

// Every bench cell, once, in the fixed order bench_wallclock runs them.
// Slices: classic (each app's first data set at 4K, 16K and Dyn on both
// backends), fig1, fig2, fig3, table1, ablation, scaling, fault,
// fault-sweep and kv.
const std::vector<BenchCell>& BenchCells();

// The cells tagged `slice`, in catalogue order; empty for an unknown name.
std::vector<BenchCell> SliceCells(const std::string& slice);

// --- cross-backend conformance sweep ---------------------------------------
// One row per application — the paper's 8-program suite plus the
// repo-local additions (Fuzz, KV, Life): a seeded, test-sized input plus
// the golden checksum its result() must reproduce at `num_procs`
// processors under every (backend × aggregation) cell of the conformance
// sweep (tests/test_conformance.cc).  Every app's result is exact at fixed
// num_procs, so every cell must produce the identical bits; the lock apps
// build theirs only from commuting integer parts (DESIGN.md §11).
struct ConformanceScenario {
  std::string app;
  std::string dataset;  // deterministic (seeded) test-sized input
  int num_procs;
  // Golden result for (app, dataset, num_procs), recorded from the
  // sequentially consistent reference backend.
  double checksum;
  // True iff the app's full modelled state (times, comm statistics) is
  // bit-reproducible at a fixed configuration.  False for any app that
  // synchronizes through locks, whose grant order the host schedules:
  // its result is exact while its statistics are not.  test_gc
  // bit-compares modelled state across GC settings only when this is set.
  bool modelled_stable = true;
};

std::vector<ConformanceScenario> ConformanceScenarios();

}  // namespace dsm::apps
