#include "apps/registry.h"

#include <algorithm>
#include <stdexcept>

#include "apps/barnes.h"
#include "apps/fft3d.h"
#include "apps/fuzz.h"
#include "apps/ilink.h"
#include "apps/jacobi.h"
#include "apps/kvstore.h"
#include "apps/life.h"
#include "apps/mgs.h"
#include "apps/shallow.h"
#include "apps/tsp.h"
#include "apps/water.h"
#include "common/check.h"

namespace dsm::apps {

std::unique_ptr<Application> MakeApp(const std::string& app,
                                     const std::string& dataset) {
  if (app == "Jacobi") return std::make_unique<Jacobi>(JacobiDataset(dataset));
  if (app == "MGS") return std::make_unique<Mgs>(MgsDataset(dataset));
  if (app == "3D-FFT") return std::make_unique<Fft3d>(Fft3dDataset(dataset));
  if (app == "Shallow") {
    return std::make_unique<Shallow>(ShallowDataset(dataset));
  }
  if (app == "Barnes") return std::make_unique<Barnes>(BarnesDataset(dataset));
  if (app == "Water") return std::make_unique<Water>(WaterDataset(dataset));
  if (app == "TSP") return std::make_unique<Tsp>(TspDataset(dataset));
  if (app == "ILINK") return std::make_unique<Ilink>(IlinkDataset(dataset));
  if (app == "Fuzz") return std::make_unique<Fuzz>(FuzzDataset(dataset));
  if (app == "RacyFuzz") {
    return std::make_unique<RacyFuzz>(FuzzDataset(dataset));
  }
  if (app == "KV") return std::make_unique<KvStore>(KvDataset(dataset));
  if (app == "RacyKv") return std::make_unique<RacyKv>(KvDataset(dataset));
  if (app == "Life") return std::make_unique<Life>(LifeDataset(dataset));
  DSM_CHECK(false) << "unknown application " << app;
  return nullptr;
}

namespace {

std::vector<BenchCell> BuildCatalogue() {
  const std::vector<ConformanceScenario> scenarios = ConformanceScenarios();
  std::vector<BenchCell> cells;
  auto add = [&](BenchCell cell) {
    for (const ConformanceScenario& s : scenarios) {
      if (s.app == cell.app) cell.stable = s.modelled_stable;
    }
    cells.push_back(std::move(cell));
  };

  // The paper's applications and data sets in Table 1 order, smallest
  // data set first.  Figures 1 and 2 run every data set at every unit on
  // LRC.  Each app's first data set is its classic one: it also runs on
  // HLRC at 4K, 16K and Dyn, and it is the one Figure 3 and the
  // dynamic-aggregation ablation use.
  const struct {
    const char* app;
    const char* figure;
    std::vector<const char*> datasets;
    bool fig3;      // false-sharing signature at 4K and 16K
    bool ablation;  // max_group_pages sweep at Dyn
  } paper_apps[] = {
      {"Barnes", "fig1", {"16K"}, true, false},
      {"ILINK", "fig1", {"CLP"}, true, true},
      {"TSP", "fig1", {"11-city"}, false, false},
      {"Water", "fig1", {"512"}, true, false},
      {"Jacobi", "fig2", {"1Kx1K", "2Kx2K"}, false, false},
      {"3D-FFT", "fig2", {"64x64x32", "64x64x64", "128x128x128"}, false,
       false},
      {"MGS", "fig2", {"1Kx1K", "2Kx2K", "1Kx4K"}, true, true},
      {"Shallow", "fig2", {"1Kx0.5K", "2Kx0.5K", "4Kx0.5K"}, false, false},
  };
  // Jacobi 1Kx1K at 4K carries three more slices: cluster scaling
  // (DESIGN.md §8), crash recovery, and recovery cost across the GC lag
  // (DESIGN.md §9).  The fault-sweep schedule kills the coordinator,
  // proc 0, and under HLRC, where every victim is a home, two homes.
  auto jacobi = [](const char* backend, int procs, std::string fault,
                   int gc_lag, const char* slice) {
    return BenchCell{.app = "Jacobi",
                     .dataset = "1Kx1K",
                     .unit = "4K",
                     .backend = backend,
                     .procs = procs,
                     .fault = std::move(fault),
                     .gc_lag = gc_lag,
                     .slices = {slice}};
  };
  // The protocol backends: the paper's LRC and the home-based
  // counterpart (DESIGN.md §7).  The reference oracle is a correctness
  // tool, not a performance point.
  for (const char* backend : {"LRC", "HLRC"}) {
    const bool lrc = std::string(backend) == "LRC";
    for (const auto& a : paper_apps) {
      for (std::size_t d = 0; d < a.datasets.size(); ++d) {
        const bool classic = d == 0;
        for (const std::string unit : {"4K", "8K", "16K", "Dyn"}) {
          BenchCell cell{.app = a.app,
                         .dataset = a.datasets[d],
                         .unit = unit,
                         .backend = backend};
          if (classic && unit != "8K") cell.slices.push_back("classic");
          if (lrc) {
            cell.slices.push_back(a.figure);
            if (unit == "4K") cell.slices.push_back("table1");
            if (classic && a.fig3 && (unit == "4K" || unit == "16K")) {
              cell.slices.push_back("fig3");
            }
            if (classic && a.ablation && unit == "Dyn") {
              cell.slices.push_back("ablation");
            }
          }
          if (!cell.slices.empty()) add(std::move(cell));
        }
      }
    }
    for (int procs : {16, 32, 64, 128}) {
      add(jacobi(backend, procs, "", 0, "scaling"));
    }
    for (const char* fault : {"barrier:1@4", "release:1@8"}) {
      add(jacobi(backend, 8, fault, 0, "fault"));
    }
    for (int lag : {1, 2, 4, 8}) {
      add(jacobi(backend, 8, "barrier:0@4+release:2@6", lag, "fault-sweep"));
    }
    // The KV request mixes (DESIGN.md §11), each >= 1M modelled requests.
    for (const char* mix : {"read-mostly", "write-heavy", "hot"}) {
      add({.app = "KV",
           .dataset = mix,
           .unit = "4K",
           .backend = backend,
           .slices = {"kv"}});
    }
  }
  return cells;
}

}  // namespace

RuntimeConfig BenchCell::Config() const {
  RuntimeConfig cfg;
  cfg.num_procs = procs;
  if (unit == "8K") cfg.pages_per_unit = 2;
  if (unit == "16K") cfg.pages_per_unit = 4;
  if (unit == "Dyn") cfg.aggregation = AggregationMode::kDynamic;
  if (backend == "HLRC") cfg.backend = BackendKind::kHlrc;
  // Any other label leaves a default whose label differs from it.
  if (unit != cfg.UnitLabel() || backend != cfg.BackendLabel()) {
    throw std::invalid_argument("unknown unit or backend in cell " + Key());
  }
  if (!fault.empty()) cfg.fault = FaultSchedule::Parse(fault, procs);
  if (gc_lag > 0) cfg.gc_lag_barriers = gc_lag;
  return cfg;
}

std::string BenchCell::Key() const {
  std::string key = app + "/" + dataset + "/" + unit + "/" + backend + "/p" +
                    std::to_string(procs);
  if (!fault.empty()) key += " " + fault;
  if (gc_lag > 0) key += " lag=" + std::to_string(gc_lag);
  return key;
}

const std::vector<BenchCell>& BenchCells() {
  static const std::vector<BenchCell> cells = BuildCatalogue();
  return cells;
}

std::vector<BenchCell> SliceCells(const std::string& slice) {
  std::vector<BenchCell> cells;
  for (const BenchCell& c : BenchCells()) {
    if (std::ranges::find(c.slices, slice) != c.slices.end()) {
      cells.push_back(c);
    }
  }
  return cells;
}

std::vector<ConformanceScenario> ConformanceScenarios() {
  // Golden checksums recorded from the reference backend at 4 processors
  // (see tests/test_conformance.cc, which re-derives and cross-checks
  // them on every run).  The lock apps (Water, TSP, Fuzz, KV) have exact
  // results but lock-scheduled statistics.
  return {
      {"Jacobi", "tiny", 4, 189321.05570180155, true},
      {"MGS", "tiny", 4, 1.4165231243520721e-06, true},
      {"3D-FFT", "tiny", 4, 13.190211990917534, true},
      {"Shallow", "tiny", 4, 164279.61499786377, true},
      {"Barnes", "tiny", 4, 263.25515289674513, true},
      {"ILINK", "tiny", 4, 6720.7531095147133, true},
      // Fixed-point forces (src/apps/water.cc).
      {"Water", "tiny", 4, 1084.9947509765625, false},
      // Integer distances (src/apps/tsp.cc): the optimal tour's cost.
      {"TSP", "tiny", 4, 262546.0, false},
      // Property-based randomized mix (src/apps/fuzz.cc).
      {"Fuzz", "tiny", 4, 547927.0, false},
      // Partitioned key-value store (src/apps/kvstore.cc): request-shaped
      // lock-sharded traffic.
      {"KV", "tiny", 4, 10525358.0, false},
      // Game of life (src/apps/life.cc): barrier-only integer stencil,
      // bit-deterministic everywhere.
      {"Life", "tiny", 4, 43872.0, true},
  };
}

}  // namespace dsm::apps
