// Shared harness for the figure/table reproduction benches.
//
// Each bench binary runs one slice of the cell catalogue (BenchCells(),
// apps/registry.h) and prints the same rows/series the paper reports
// (normalized to the 4 KB page, as in Figures 1 and 2).
#pragma once

#include <string>

#include "apps/registry.h"

namespace dsm::bench {

// Run one catalogue cell on a fresh app instance.
apps::AppRun RunOne(const apps::BenchCell& cell);

// Run `slice` and print one normalized block per (app, data set), in
// catalogue order: execution time, messages and data of each unit, each
// normalized to the block's first (4 K) row.
void PrintFigure(const std::string& slice);

}  // namespace dsm::bench
