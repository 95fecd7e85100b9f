#include "bench_common.h"

#include <cstdio>

namespace dsm::bench {

std::vector<ConfigPoint> FigureConfigs() {
  return {
      {"4K", AggregationMode::kStatic, 1},
      {"8K", AggregationMode::kStatic, 2},
      {"16K", AggregationMode::kStatic, 4},
      {"Dyn", AggregationMode::kDynamic, 1},
  };
}

RuntimeConfig MakeRuntimeConfig(const ConfigPoint& point, int num_procs) {
  RuntimeConfig cfg;
  cfg.num_procs = num_procs;
  cfg.aggregation = point.mode;
  cfg.pages_per_unit = point.pages_per_unit;
  return cfg;
}

FigureRow RunOne(const apps::AppSpec& spec, const ConfigPoint& point,
                 int num_procs) {
  auto app = apps::MakeApp(spec.app, spec.dataset);
  const apps::AppRun run =
      apps::Execute(*app, MakeRuntimeConfig(point, num_procs));

  FigureRow row;
  row.config = point.label;
  row.exec_seconds = run.stats.exec_seconds();
  row.comm = run.stats.comm;
  row.result = run.result;
  return row;
}

void PrintFigureBlock(const apps::AppSpec& spec, int num_procs) {
  std::printf("== %s %s ==\n", spec.app.c_str(), spec.dataset.c_str());
  std::printf(
      "%-5s %9s %6s | %9s %8s %8s %7s %6s | %9s %9s %9s %6s\n", "cfg",
      "time(s)", "norm", "msg_usef", "msg_usel", "msg_sync", "total",
      "norm", "KB_usef", "KB_piggy", "KB_usel", "norm");

  std::vector<FigureRow> rows;
  for (const ConfigPoint& point : FigureConfigs()) {
    rows.push_back(RunOne(spec, point, num_procs));
  }
  const double base_msgs =
      static_cast<double>(rows.front().comm.total_messages());
  const double base_bytes =
      static_cast<double>(rows.front().comm.total_data_bytes());
  for (const FigureRow& r : rows) {
    const CommBreakdown& c = r.comm;
    const std::uint64_t msgs = c.total_messages();
    const std::uint64_t bytes = c.total_data_bytes();
    std::printf(
        "%-5s %9.4f %6.3f | %9llu %8llu %8llu %7llu %6.3f | %9.1f %9.1f "
        "%9.1f %6.3f\n",
        r.config.c_str(), r.exec_seconds,
        r.exec_seconds / rows.front().exec_seconds,
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

}  // namespace dsm::bench
