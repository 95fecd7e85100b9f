// Figure 2 reproduction: 8-processor execution times, messages, and data
// for Jacobi, 3D-FFT, MGS, and Shallow across problem sizes, with
// consistency units of 4, 8, 16 KB and dynamic aggregation, normalized to
// the 4 KB page.
//
// Expected shape (paper §5.4): highly size-dependent.  Smallest sizes
// degrade at larger units (grain == 4 KB); medium sizes peak at 8 K;
// largest sizes improve throughout.  MGS degrades dramatically (useless
// message explosion).  Dyn tracks the best static size everywhere.
#include <cstdio>

#include "bench_common.h"

int main() {
  std::printf(
      "Figure 2: Jacobi, 3D-FFT, MGS, Shallow (normalized to 4K)\n\n");
  dsm::bench::PrintFigure("fig2");
  return 0;
}
