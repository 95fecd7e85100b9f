// Figure 3 reproduction: false sharing signatures for Barnes, Ilink,
// Water, and MGS at 4 KB and 16 KB consistency units.
//
// The signature is a histogram over page faults of the number of
// concurrent writers contacted; each bar splits into useful and useless
// exchanges.  Expected shape (paper §5.4): nearly invariant for Barnes,
// Ilink, and Water (slight right-shift for Barnes/Water), dramatic right
// shift dominated by useless exchanges for MGS.
#include <cstdio>

#include "bench_common.h"

int main() {
  std::printf("Figure 3: false sharing signatures (4K vs 16K)\n\n");
  for (const dsm::apps::BenchCell& cell : dsm::apps::SliceCells("fig3")) {
    const dsm::apps::AppRun run = dsm::bench::RunOne(cell);
    const dsm::SplitHistogram& sig = run.stats.comm.signature;
    std::printf("== %s %s @ %s ==\n", cell.app.c_str(), cell.dataset.c_str(),
                cell.unit.c_str());
    std::printf("%8s %12s %12s %10s\n", "writers", "useful_ex", "useless_ex",
                "frac");
    const auto norm = sig.NormalizedTotals();
    for (std::size_t k = 1; k < sig.num_buckets(); ++k) {
      if (sig.total(k) == 0) continue;
      std::printf("%8zu %12llu %12llu %10.3f\n", k,
                  static_cast<unsigned long long>(sig.useful(k)),
                  static_cast<unsigned long long>(sig.useless(k)), norm[k]);
    }
    std::printf("\n");
  }
  return 0;
}
