// Figure 1 reproduction: 8-processor execution times, messages, and data
// for Barnes, Ilink, TSP, and Water, with consistency units of 4, 8, and
// 16 KB and with the dynamic aggregation algorithm, all normalized to the
// 4 KB virtual-memory page.
//
// Expected shape (paper §5.4): performance improves with increasing unit
// size for all four; message counts drop; data stays constant (Ilink, TSP)
// or increases very slightly (Barnes, Water); Dyn lands near the best
// static size.
#include <cstdio>

#include "bench_common.h"

int main() {
  std::printf("Figure 1: Barnes, ILINK, TSP, Water (normalized to 4K)\n\n");
  dsm::bench::PrintFigure("fig1");
  return 0;
}
