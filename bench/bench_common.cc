#include "bench_common.h"

#include <cstdio>
#include <vector>

namespace dsm::bench {

apps::AppRun RunOne(const apps::BenchCell& cell) {
  auto app = apps::MakeApp(cell.app, cell.dataset);
  return apps::Execute(*app, cell.Config());
}

namespace {

void PrintFigureBlock(const std::vector<apps::BenchCell>& cells) {
  std::printf("== %s %s ==\n", cells.front().app.c_str(),
              cells.front().dataset.c_str());
  std::printf(
      "%-5s %9s %6s | %9s %8s %8s %7s %6s | %9s %9s %9s %6s\n", "cfg",
      "time(s)", "norm", "msg_usef", "msg_usel", "msg_sync", "total",
      "norm", "KB_usef", "KB_piggy", "KB_usel", "norm");

  std::vector<RunStats> runs;
  for (const apps::BenchCell& cell : cells) runs.push_back(RunOne(cell).stats);
  const double base_seconds = runs.front().exec_seconds();
  const double base_msgs =
      static_cast<double>(runs.front().comm.total_messages());
  const double base_bytes =
      static_cast<double>(runs.front().comm.total_data_bytes());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const CommBreakdown& c = runs[i].comm;
    const std::uint64_t msgs = c.total_messages();
    const std::uint64_t bytes = c.total_data_bytes();
    std::printf(
        "%-5s %9.4f %6.3f | %9llu %8llu %8llu %7llu %6.3f | %9.1f %9.1f "
        "%9.1f %6.3f\n",
        cells[i].unit.c_str(), runs[i].exec_seconds(),
        runs[i].exec_seconds() / base_seconds,
        static_cast<unsigned long long>(c.useful_messages),
        static_cast<unsigned long long>(c.useless_messages),
        static_cast<unsigned long long>(c.sync_messages),
        static_cast<unsigned long long>(msgs),
        base_msgs > 0 ? static_cast<double>(msgs) / base_msgs : 0.0,
        static_cast<double>(c.useful_data_bytes) / 1024.0,
        static_cast<double>(c.piggyback_useless_bytes) / 1024.0,
        static_cast<double>(c.useless_msg_data_bytes) / 1024.0,
        base_bytes > 0 ? static_cast<double>(bytes) / base_bytes : 0.0);
  }
  std::printf("\n");
}

}  // namespace

void PrintFigure(const std::string& slice) {
  std::vector<apps::BenchCell> block;
  for (const apps::BenchCell& cell : apps::SliceCells(slice)) {
    if (!block.empty() && (cell.app != block.front().app ||
                           cell.dataset != block.front().dataset)) {
      PrintFigureBlock(block);
      block.clear();
    }
    block.push_back(cell);
  }
  if (!block.empty()) PrintFigureBlock(block);
}

}  // namespace dsm::bench
