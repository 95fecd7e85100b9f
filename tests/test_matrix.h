// The cells the app-matrix suites sweep: the unit sizes {4K, 16K, Dyn}
// and the three backends, plus the race-checked cell config and report
// dump of the race detector and KV suites.
#pragma once

#include <string>

#include "core/runtime.h"

namespace dsm::apps {

struct AggPoint {
  const char* label;
  AggregationMode mode;
  int ppu;
};

inline constexpr AggPoint kAggs[] = {
    {"4K", AggregationMode::kStatic, 1},
    {"16K", AggregationMode::kStatic, 4},
    {"Dyn", AggregationMode::kDynamic, 1},
};

inline constexpr BackendKind kBackends[] = {
    BackendKind::kLrc, BackendKind::kHlrc, BackendKind::kReference};

// One matrix cell with the happens-before race checker on.
inline RuntimeConfig CellConfig(BackendKind backend, const AggPoint& agg,
                                int num_procs) {
  RuntimeConfig cfg;
  cfg.num_procs = num_procs;
  cfg.backend = backend;
  cfg.aggregation = agg.mode;
  cfg.pages_per_unit = agg.ppu;
  cfg.race_check = true;
  return cfg;
}

inline std::string ReportDump(const RaceStats& races) {
  std::string out;
  for (const RaceReport& r : races.reports) out += "  " + r.ToString() + "\n";
  return out;
}

}  // namespace dsm::apps
