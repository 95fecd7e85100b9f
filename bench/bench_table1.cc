// Table 1 reproduction: applications, data sets, sequential execution
// times, and 8-processor speedups with the hardware page (4 KB) as the
// consistency unit.
//
// Absolute seconds are modelled virtual time on scaled-down datasets
// (DESIGN.md §5), so they differ from the paper's 166 MHz cluster; the
// reproduced quantity is the speedup band (the paper reports 4.1–6.5).
#include <cstdio>

#include "bench_common.h"

int main() {
  std::printf("Table 1: sequential times and 8-processor speedups (4K)\n\n");
  std::printf("%-8s %-12s %10s %10s %9s\n", "Program", "Input", "SeqTime(s)",
              "8pTime(s)", "Speedup");

  for (const dsm::apps::BenchCell& cell : dsm::apps::SliceCells("table1")) {
    auto seq_app = dsm::apps::MakeApp(cell.app, cell.dataset);
    const dsm::apps::AppRun seq =
        dsm::apps::ExecuteSequential(*seq_app, cell.Config());
    const dsm::apps::AppRun par = dsm::bench::RunOne(cell);

    std::printf("%-8s %-12s %10.3f %10.3f %9.2f\n", cell.app.c_str(),
                cell.dataset.c_str(), seq.stats.exec_seconds(),
                par.stats.exec_seconds(),
                seq.stats.exec_seconds() / par.stats.exec_seconds());
  }
  return 0;
}
