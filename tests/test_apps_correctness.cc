// Application correctness: each program must compute the same answer on
// 1 processor (no protocol) and on 8 processors, at every consistency-unit
// configuration (4 K / 8 K / 16 K / dynamic).  This is the end-to-end check
// that the LRC + multiple-writer protocol preserves program semantics at
// every aggregation setting.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.h"
#include "apps/tsp.h"

namespace dsm::apps {
namespace {

struct ConfigCase {
  const char* label;
  AggregationMode mode;
  int pages_per_unit;
};

const ConfigCase kConfigs[] = {
    {"4K", AggregationMode::kStatic, 1},
    {"8K", AggregationMode::kStatic, 2},
    {"16K", AggregationMode::kStatic, 4},
    {"Dyn", AggregationMode::kDynamic, 1},
};

RuntimeConfig MakeConfig(const ConfigCase& c, int nprocs = 8) {
  RuntimeConfig cfg;
  cfg.num_procs = nprocs;
  cfg.aggregation = c.mode;
  cfg.pages_per_unit = c.pages_per_unit;
  return cfg;
}

class AppConfigTest
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

// App names paired with the index into kConfigs.
const char* const kDeterministicApps[] = {
    "Jacobi", "MGS", "Shallow", "Barnes", "ILINK", "Water",
};

TEST_P(AppConfigTest, ParallelMatchesSequential) {
  const auto& [app_name, config_idx] = GetParam();
  const ConfigCase& cc = kConfigs[config_idx];

  auto seq_app = MakeApp(app_name, "tiny");
  const AppRun seq = ExecuteSequential(*seq_app, MakeConfig(cc));

  auto par_app = MakeApp(app_name, "tiny");
  const AppRun par = Execute(*par_app, MakeConfig(cc));

  // These programs partition writes disjointly and reduce in fixed order,
  // or (Water) sum fixed-point integers, so parallel results are
  // bit-identical to sequential.
  EXPECT_EQ(seq.result, par.result)
      << app_name << " @ " << cc.label << ": seq=" << seq.result
      << " par=" << par.result;
  // The parallel run must actually have exercised the protocol.
  EXPECT_GT(par.stats.net.total_messages(), 0u);
  EXPECT_EQ(seq.stats.net.total_messages(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllAppsAllConfigs, AppConfigTest,
    ::testing::Combine(::testing::ValuesIn(kDeterministicApps),
                       ::testing::Range(0, 4)),
    [](const auto& info) {
      std::string name = std::string(std::get<0>(info.param)) + "_" +
                         kConfigs[std::get<1>(info.param)].label;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// 3D-FFT reduces its checksum through per-processor partials, so the
// floating-point grouping differs between 1 and 8 processors; the values
// agree to rounding error.
class FftConfigTest : public ::testing::TestWithParam<int> {};

TEST_P(FftConfigTest, ParallelMatchesSequentialWithinRounding) {
  const ConfigCase& cc = kConfigs[GetParam()];
  auto seq_app = MakeApp("3D-FFT", "tiny");
  const AppRun seq = ExecuteSequential(*seq_app, MakeConfig(cc));
  auto par_app = MakeApp("3D-FFT", "tiny");
  const AppRun par = Execute(*par_app, MakeConfig(cc));
  ASSERT_NE(seq.result, 0.0);
  EXPECT_NEAR(par.result / seq.result, 1.0, 1e-12) << "3D-FFT @ " << cc.label;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, FftConfigTest, ::testing::Range(0, 4),
                         [](const auto& info) {
                           return std::string(kConfigs[info.param].label);
                         });

// TSP is a branch-and-bound search: the explored node set is
// schedule-dependent but the optimum is not, and must match brute force
// in parallel and sequentially.
class TspConfigTest : public ::testing::TestWithParam<int> {};

TEST_P(TspConfigTest, FindsOptimalTour) {
  const ConfigCase& cc = kConfigs[GetParam()];
  const std::int32_t optimal = Tsp::BruteForce(TspDataset("tiny"));
  auto par_app = MakeApp("TSP", "tiny");
  EXPECT_EQ(Execute(*par_app, MakeConfig(cc)).result, optimal) << cc.label;
  auto seq_app = MakeApp("TSP", "tiny");
  EXPECT_EQ(ExecuteSequential(*seq_app, MakeConfig(cc)).result, optimal)
      << cc.label;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, TspConfigTest, ::testing::Range(0, 4),
                         [](const auto& info) {
                           return std::string(kConfigs[info.param].label);
                         });

// The bench cell catalogue: one entry per cell, every cell buildable, and
// each slice the shape its bench driver prints.
TEST(Registry, BenchCatalogue) {
  std::set<std::string> keys;
  std::set<std::pair<std::string, std::string>> datasets;
  int stable = 0;
  for (const BenchCell& c : BenchCells()) {
    EXPECT_TRUE(keys.insert(c.Key()).second) << "duplicate " << c.Key();
    EXPECT_NO_THROW(c.Config().Validate()) << c.Key();
    datasets.insert({c.app, c.dataset});
    if (c.stable) ++stable;
  }
  EXPECT_EQ(BenchCells().size(), 110u);
  EXPECT_EQ(stable, 90);
  for (const auto& [app, dataset] : datasets) {
    auto made = MakeApp(app, dataset);
    ASSERT_NE(made, nullptr);
    EXPECT_EQ(made->name(), app);
    EXPECT_EQ(made->dataset(), dataset);
    EXPECT_GT(made->heap_bytes(), 0u);
  }

  // Figures 1 and 2: each data set at 4K, 8K, 16K and Dyn (4K first, the
  // row the blocks normalize to), on LRC at 8 processors, failure-free.
  std::vector<std::pair<std::string, std::string>> figure_datasets;
  for (const auto& [figure, count] : {std::pair{"fig1", 4}, {"fig2", 11}}) {
    const std::vector<BenchCell> slice = SliceCells(figure);
    ASSERT_EQ(slice.size(), 4u * count) << figure;
    for (std::size_t i = 0; i < slice.size(); ++i) {
      const BenchCell& c = slice[i];
      const BenchCell& first = slice[i - i % 4];
      EXPECT_EQ(c.unit, kConfigs[i % 4].label) << c.Key();
      EXPECT_EQ(c.app, first.app) << c.Key();
      EXPECT_EQ(c.dataset, first.dataset) << c.Key();
      EXPECT_EQ(c.backend, "LRC") << c.Key();
      EXPECT_EQ(c.procs, 8) << c.Key();
      EXPECT_TRUE(c.fault.empty()) << c.Key();
      EXPECT_EQ(c.gc_lag, 0) << c.Key();
      if (i % 4 == 0) figure_datasets.emplace_back(c.app, c.dataset);
    }
  }
  // Table 1: those 15 data sets, in the same order, at 4K.
  const std::vector<BenchCell> table1 = SliceCells("table1");
  ASSERT_EQ(table1.size(), figure_datasets.size());
  for (std::size_t i = 0; i < table1.size(); ++i) {
    const BenchCell& c = table1[i];
    EXPECT_EQ(std::pair(c.app, c.dataset), figure_datasets[i]) << c.Key();
    EXPECT_EQ(c.Key(), c.app + "/" + c.dataset + "/4K/LRC/p8");
  }

  for (const auto& [slice, count] :
       {std::pair{"classic", 48}, {"scaling", 8}, {"fault", 4},
        {"fault-sweep", 8}, {"kv", 6}}) {
    EXPECT_EQ(SliceCells(slice).size(), static_cast<std::size_t>(count))
        << slice;
  }
  EXPECT_TRUE(SliceCells("bogus").empty());

  // Config() rejects a unit or backend label it does not know and a fault
  // spec that does not parse.
  for (const BenchCell& bad :
       {BenchCell{.app = "Jacobi", .dataset = "1Kx1K", .unit = "32K",
                  .backend = "LRC"},
        BenchCell{.app = "Jacobi", .dataset = "1Kx1K", .unit = "4K",
                  .backend = "Ref"},
        BenchCell{.app = "Jacobi", .dataset = "1Kx1K", .unit = "4K",
                  .backend = "LRC", .fault = "bogus"}}) {
    EXPECT_THROW(bad.Config(), std::invalid_argument) << bad.Key();
  }
}

TEST(Registry, UnknownAppThrows) {
  EXPECT_THROW(MakeApp("NoSuchApp", "x"), CheckError);
  EXPECT_THROW(MakeApp("Jacobi", "no-such-size"), CheckError);
}

}  // namespace
}  // namespace dsm::apps
