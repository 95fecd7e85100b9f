// Ablation: dynamic aggregation's maximum group size (the paper calls it
// "some implementation-dependent maximum number of pages per group").
// Sweeps max_group_pages over {1, 2, 4, 8, 16} on the two applications
// where dynamic aggregation matters most in opposite ways: ILINK (stable
// repeating pattern — bigger groups keep winning) and MGS (no repetition —
// grouping must never hurt).
#include <cstdio>

#include "bench_common.h"

int main() {
  const int group_sizes[] = {1, 2, 4, 8, 16};

  std::printf("Ablation: dynamic aggregation max group size\n\n");
  for (const dsm::apps::BenchCell& cell : dsm::apps::SliceCells("ablation")) {
    std::printf("== %s %s ==\n", cell.app.c_str(), cell.dataset.c_str());
    std::printf("%-10s %10s %12s %12s\n", "max_group", "time(s)",
                "exchanges", "prefetches");
    for (int g : group_sizes) {
      dsm::RuntimeConfig cfg = cell.Config();
      cfg.max_group_pages = g;
      auto app = dsm::apps::MakeApp(cell.app, cell.dataset);
      const dsm::apps::AppRun run = dsm::apps::Execute(*app, cfg);
      std::printf("%-10d %10.4f %12llu %12llu\n", g,
                  run.stats.exec_seconds(),
                  (unsigned long long)((run.stats.comm.useful_messages +
                                        run.stats.comm.useless_messages) /
                                       2),
                  (unsigned long long)run.stats.comm.group_prefetch_units);
    }
    std::printf("\n");
  }
  return 0;
}
