// Shared harness for the figure/table reproduction benches.
//
// Each bench binary runs application × consistency-unit sweeps and prints
// the same rows/series the paper reports (normalized to the 4 KB page, as
// in Figures 1 and 2).
#pragma once

#include <string>
#include <vector>

#include "apps/registry.h"

namespace dsm::bench {

struct ConfigPoint {
  const char* label;
  AggregationMode mode;
  int pages_per_unit;
};

// The paper's sweep: 4 K, 8 K, 16 K static units plus dynamic aggregation.
std::vector<ConfigPoint> FigureConfigs();

RuntimeConfig MakeRuntimeConfig(const ConfigPoint& point, int num_procs = 8);

// One measured row of a figure.
struct FigureRow {
  std::string config;
  double exec_seconds = 0;
  CommBreakdown comm;
  double result = 0;  // application checksum (cross-config consistency)
};

FigureRow RunOne(const apps::AppSpec& spec, const ConfigPoint& point,
                 int num_procs = 8);

// Run all FigureConfigs() for `spec` and print the normalized block
// (execution time, messages, data — each normalized to the 4 K row).
void PrintFigureBlock(const apps::AppSpec& spec, int num_procs = 8);

}  // namespace dsm::bench
