// Named-workload runner behind BENCHMARK.json.  README.md beside this file
// documents the workloads, the metrics and their bounds.
//
// The benchmark measures the simulator from the outside.  It replays
// apps::Execute one public call at a time and times each call on the host's
// steady clock: constructing the application, the Runtime constructor,
// Application::Setup, Runtime::Run, Runtime::CollectStats, and the teardown
// of both.  Traced passes also wrap Application::Body to take every modelled
// processor's wall-clock and thread CPU time.  Every other number comes from
// RunStats; nothing inside src/ is instrumented.
//
// The load is one process with one main thread that runs one cell at a
// time.  The only other threads are the simulator's modelled processors.
//
//   dsm_bench --workload=NAME [--seconds=S] [--seed=N] [--trace=PATH]
//
// One untimed warm-up pass runs first and is discarded.  Timed passes then
// repeat until the next one would overrun S seconds, counted from the start
// of the process.  With --trace, every second pass is traced, and its spans
// are written to PATH as Chrome trace-event JSON.  The last line of stdout is
// one JSON object: each metric's median over the passes with the quartiles
// and sample count, the number of checked cell runs and failures, and the
// run's provenance.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/barnes.h"
#include "apps/jacobi.h"
#include "apps/kvstore.h"
#include "apps/registry.h"
#include "common/rng.h"

#ifndef PAGEDSM_BENCH_BUILD_TYPE
#define PAGEDSM_BENCH_BUILD_TYPE "unknown"
#endif

namespace dsm::perf {
namespace {

using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

constexpr int kNumProcs = 8;  // the paper's cluster
constexpr double kMB = 1e6;
// Untraced passes a run needs before it may stop, so that a median and
// quartiles exist even when one pass takes most of the time budget.
constexpr std::size_t kMinPasses = 3;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// --- workloads -------------------------------------------------------------

struct ModePoint {
  const char* label;
  AggregationMode mode;
  int pages_per_unit;
};

// The conformance sweep's consistency units.
const ModePoint kModes[] = {
    {"4K", AggregationMode::kStatic, 1},
    {"16K", AggregationMode::kStatic, 4},
    {"Dyn", AggregationMode::kDynamic, 1},
};

// The paper's Figure 1/2 applications that synchronise by barriers only, at
// the dataset sizes bench_wallclock runs, with the checksums
// BENCH_wallclock.json pins for them.  Every backend and consistency unit
// must reproduce these bits, and the whole modelled state is deterministic.
struct SciApp {
  const char* app;
  const char* dataset;
  double golden;
};

const SciApp kSciApps[] = {
    {"Jacobi", "1Kx1K", 112451.98464846238},
    {"MGS", "1Kx1K", 1.4222098237770437e-05},
    {"3D-FFT", "64x64x32", 60.84510137510169},
    {"Shallow", "1Kx0.5K", 981606.933971405},
    {"Barnes", "16K", 3637.844750321019},
    {"ILINK", "CLP", 96531.5342912674},
};

struct Workload {
  const char* name;
  // Sci workloads run every kSciApps entry under every kModes unit on this
  // backend.  KV workloads run one mix at the 4 K unit on LRC and on HLRC.
  BackendKind backend;
  const char* kv_dataset;  // nullptr for the sci workloads
  double kv_golden;        // checksum of kv_dataset at its own seed
};

const Workload kWorkloads[] = {
    {"sci-lrc", BackendKind::kLrc, nullptr, 0},
    {"sci-hlrc", BackendKind::kHlrc, nullptr, 0},
    {"kv-write-heavy", BackendKind::kLrc, "write-heavy", 2188799864.0},
    {"kv-read-mostly", BackendKind::kLrc, "read-mostly", 2184397434.0},
};

struct BackendPoint {
  const char* label;
  BackendKind backend;
};

const BackendPoint kKvBackends[] = {
    {"LRC", BackendKind::kLrc},
    {"HLRC", BackendKind::kHlrc},
};

// One application input.  `golden` is set when the input's checksum is
// pinned; otherwise the input's first cell run sets it (see Checker).
struct Instance {
  std::function<std::unique_ptr<apps::Application>()> make;
  std::optional<double> golden;
};

// The seed generates the inputs.  Seed 0 runs the paper datasets and the KV
// mixes' own seeds exactly.  Any other seed re-seeds the KV request streams
// and shard layout, and grows Jacobi's rows and Barnes' bodies by 0-3 small
// steps (at most +9% and +5%, about 0.5% of a sci pass).  Every sharing
// grain stays as it is, so the false sharing the paper measures is
// unchanged, while the modelled times differ from seed to seed.
std::uint64_t SizeSteps(std::uint64_t seed, std::uint64_t salt) {
  return seed == 0 ? 0 : SplitMix64(seed ^ salt).Next() % 4;
}

// Checksums of the grown inputs by step, step 0 being the paper dataset.
// The reference backend and LRC and HLRC at every unit agree on each.
const double kJacobiGoldens[] = {112451.98464846238, 107040.7649554871,
                                 101938.02589136921, 97183.259077841416};
const double kBarnesGoldens[] = {3637.844750321019, 3696.2952474360495,
                                 3753.2470007032207, 3813.212085641575};

Instance SciInstance(const SciApp& a, std::uint64_t seed) {
  const std::string app = a.app;
  const std::string dataset = a.dataset;
  if (app == "Jacobi") {
    apps::JacobiParams p = apps::JacobiDataset(dataset);
    const std::uint64_t steps = SizeSteps(seed, 0x4a61636f);
    p.rows += 8 * steps;
    return {[p] { return std::make_unique<apps::Jacobi>(p); },
            kJacobiGoldens[steps]};
  }
  if (app == "Barnes") {
    apps::BarnesParams p = apps::BarnesDataset(dataset);
    const std::uint64_t steps = SizeSteps(seed, 0x4261726e);
    p.num_bodies += 64 * steps;
    return {[p] { return std::make_unique<apps::Barnes>(p); },
            kBarnesGoldens[steps]};
  }
  return {[app, dataset] { return apps::MakeApp(app, dataset); }, a.golden};
}

// A re-seeded KV mix has no pinned checksum.  Its checksum commutes, so the
// LRC and HLRC cells and every pass must agree on it bit for bit.
Instance KvInstance(const Workload& w, std::uint64_t seed) {
  apps::KvParams p = apps::KvDataset(w.kv_dataset);
  if (seed != 0) p.seed = seed;
  return {[p] { return std::make_unique<apps::KvStore>(p); },
          seed == 0 ? std::optional(w.kv_golden) : std::nullopt};
}

RuntimeConfig Config(BackendKind backend, const ModePoint& mode) {
  RuntimeConfig cfg;
  cfg.num_procs = kNumProcs;
  cfg.backend = backend;
  cfg.aggregation = mode.mode;
  cfg.pages_per_unit = mode.pages_per_unit;
  return cfg;
}

std::string SciLabel(const SciApp& a, const ModePoint& mode) {
  return std::string(a.app) + "-" + mode.label;
}

struct Cell {
  std::string label;  // per-layer metric cell.<label>.host_s
  std::function<std::unique_ptr<apps::Application>()> make;
  RuntimeConfig cfg;
  std::size_t input;  // index of the cell's Instance
};

struct Plan {
  std::vector<Instance> inputs;
  std::vector<Cell> cells;
};

Plan BuildPlan(const Workload& w, std::uint64_t seed) {
  Plan plan;
  if (w.kv_dataset != nullptr) {
    plan.inputs.push_back(KvInstance(w, seed));
    for (const BackendPoint& b : kKvBackends) {
      plan.cells.push_back({b.label, plan.inputs[0].make,
                            Config(b.backend, kModes[0]), 0});
    }
    return plan;
  }
  for (const SciApp& a : kSciApps) {
    plan.inputs.push_back(SciInstance(a, seed));
    for (const ModePoint& mode : kModes) {
      plan.cells.push_back({SciLabel(a, mode), plan.inputs.back().make,
                            Config(w.backend, mode), plan.inputs.size() - 1});
    }
  }
  return plan;
}

// Every cell label of every workload: each run reports the same per-layer
// names, with 0 for cells its workload does not run.
std::vector<std::string> AllCellLabels() {
  std::vector<std::string> labels;
  for (const SciApp& a : kSciApps) {
    for (const ModePoint& mode : kModes) labels.push_back(SciLabel(a, mode));
  }
  for (const BackendPoint& b : kKvBackends) labels.push_back(b.label);
  return labels;
}

// --- tracing ---------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

// Spans kept in memory and written once, as Chrome trace-event JSON (open
// the file in Perfetto or chrome://tracing).  tid 0 is the main thread
// and tid p + 1 is modelled processor p.  Only the main thread adds spans.
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  int Add(std::string name, int parent, Clock::time_point begin,
          Clock::time_point end, int tid = 0, double cpu_s = -1) {
    spans_.push_back({std::move(name), parent, begin, end, tid, cpu_s});
    return static_cast<int>(spans_.size()) - 1;
  }
  void SetEnd(int id, Clock::time_point end) { spans_[id].end = end; }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    std::fprintf(f,
                 "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": 0, \"args\": {\"name\": \"main\"}}");
    for (int p = 0; p < kNumProcs; ++p) {
      std::fprintf(f,
                   ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                   "\"tid\": %d, \"args\": {\"name\": \"proc %d\"}}",
                   p + 1, p);
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   ",\n{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                   "\"parent\": %d",
                   JsonString(s.name).c_str(), s.tid, Micros(s.begin),
                   Micros(s.end) - Micros(s.begin), i, s.parent);
      if (s.cpu_s >= 0) std::fprintf(f, ", \"cpu_s\": %.9f", s.cpu_s);
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int parent;  // index of the enclosing span, -1 for a pass
    Clock::time_point begin, end;
    int tid;
    double cpu_s;  // thread CPU time of a processor body, -1 elsewhere
  };

  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// --- one cell ---------------------------------------------------------------

struct ProcSample {
  Clock::time_point begin, end;
  double cpu_s = 0;
};

struct CellRun {
  double construct_s = 0, ctor_s = 0, setup_s = 0;
  double run_s = 0, collect_s = 0, teardown_s = 0;
  RunStats stats;
  double result = 0;
  std::vector<ProcSample> procs;  // traced passes only
};

// apps::Execute's heap sizing: the app's bytes rounded up to whole units.
RuntimeConfig SizedConfig(const Cell& cell, const apps::Application& app) {
  RuntimeConfig cfg = cell.cfg;
  const std::size_t unit = cfg.unit_bytes();
  cfg.heap_bytes = (app.heap_bytes() + unit - 1) / unit * unit;
  return cfg;
}

// apps::Execute, one public call at a time.
CellRun RunCell(const Cell& cell, Tracer* tracer, int parent) {
  CellRun r;
  const auto t0 = Clock::now();
  std::unique_ptr<apps::Application> app = cell.make();
  const auto t1 = Clock::now();
  const RuntimeConfig cfg = SizedConfig(cell, *app);
  auto rt = std::make_unique<Runtime>(cfg);
  const auto t2 = Clock::now();
  app->Setup(*rt);
  const auto t3 = Clock::now();
  if (tracer != nullptr) {
    // Each processor thread writes only its own slot; Run joins them all
    // before the slots are read.
    r.procs.resize(static_cast<std::size_t>(cfg.num_procs));
    rt->Run([&](Proc& p) {
      ProcSample& s = r.procs[static_cast<std::size_t>(p.id())];
      s.begin = Clock::now();
      const double cpu0 = ThreadCpuSeconds();
      app->Body(p);
      s.cpu_s = ThreadCpuSeconds() - cpu0;
      s.end = Clock::now();
    });
  } else {
    rt->Run([&](Proc& p) { app->Body(p); });
  }
  const auto t4 = Clock::now();
  r.stats = rt->CollectStats();
  const auto t5 = Clock::now();
  r.result = app->result();
  rt.reset();
  app.reset();
  const auto t6 = Clock::now();

  r.construct_s = Seconds(t1 - t0);
  r.ctor_s = Seconds(t2 - t1);
  r.setup_s = Seconds(t3 - t2);
  r.run_s = Seconds(t4 - t3);
  r.collect_s = Seconds(t5 - t4);
  r.teardown_s = Seconds(t6 - t5);
  if (tracer != nullptr) {
    const int id = tracer->Add("cell " + cell.label, parent, t0, t6);
    tracer->Add("construct", id, t0, t1);
    tracer->Add("ctor", id, t1, t2);
    tracer->Add("setup", id, t2, t3);
    const int run = tracer->Add("run", id, t3, t4);
    for (std::size_t p = 0; p < r.procs.size(); ++p) {
      const ProcSample& s = r.procs[p];
      tracer->Add("proc " + std::to_string(p) + " body", run, s.begin, s.end,
                  static_cast<int>(p) + 1, s.cpu_s);
    }
    tracer->Add("collect", id, t4, t5);
    tracer->Add("teardown", id, t5, t6);
  }
  return r;
}

// --- correctness -----------------------------------------------------------

// Every cell run must reproduce its input's checksum bit for bit: the pinned
// one, or for an unpinned input the one its first cell run produced.  Sci
// cells must also repeat their first run's modelled time, message count and
// data volume exactly: barrier-only programs are deterministic.
class Checker {
 public:
  Checker(const Plan& plan, bool modelled_deterministic)
      : cells_(plan.cells),
        deterministic_(modelled_deterministic),
        first_(plan.cells.size()) {
    for (const Instance& in : plan.inputs) expected_.push_back(in.golden);
  }

  void Check(std::size_t i, const CellRun& r, int pass) {
    attempted_ += 1;
    std::optional<double>& want = expected_[cells_[i].input];
    if (!want) want = r.result;
    if (std::bit_cast<std::uint64_t>(r.result) !=
        std::bit_cast<std::uint64_t>(*want)) {
      Fail(i, pass, "result " + Repr(r.result) + " != expected " +
                        Repr(*want));
      return;
    }
    if (!deterministic_) return;
    const CommBreakdown& comm = r.stats.comm;
    const Signature sig{r.stats.exec_time, comm.total_messages(),
                        comm.total_data_bytes() + comm.home_flush_bytes};
    if (!first_[i]) {
      first_[i] = sig;
    } else if (*first_[i] != sig) {
      Fail(i, pass, "modelled state differs from the first run");
    }
  }

  void Threw(std::size_t i, int pass, const char* what) {
    attempted_ += 1;
    Fail(i, pass, std::string("threw: ") + what);
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  using Signature = std::tuple<VirtualNanos, std::uint64_t, std::uint64_t>;

  static std::string Repr(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  void Fail(std::size_t i, int pass, const std::string& why) {
    failed_ += 1;
    std::fprintf(stderr, "FAIL cell %s, pass %d: %s\n",
                 cells_[i].label.c_str(), pass, why.c_str());
  }

  const std::vector<Cell>& cells_;
  bool deterministic_;
  std::vector<std::optional<double>> expected_;  // by input
  std::vector<std::optional<Signature>> first_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- one pass --------------------------------------------------------------

// The end-to-end metrics measured per pass; peak_rss_mb is measured once
// per process.  Every other metric a pass reports is a per-layer metric.
const char* const kEndToEnd[] = {"host_s",           "setup_s",
                                 "modelled_s",       "modelled_msgs",
                                 "modelled_data_mb", "useless_data_frac"};

void Max(Metrics& m, const std::string& name, double v) {
  m[name] = std::max(m[name], v);
}

Metrics RunPass(const std::vector<Cell>& cells, Checker& check,
                Tracer* tracer, int pass) {
  Metrics m;
  for (const std::string& label : AllCellLabels()) {
    m["cell." + label + ".host_s"] = 0;
  }
  const auto begin = Clock::now();
  const int pass_span =
      tracer != nullptr
          ? tracer->Add("pass " + std::to_string(pass), -1, begin, begin)
          : -1;
  double useless_bytes = 0, data_bytes = 0, faults = 0, fault_writers = 0;
  double node_mean_s = 0, proc_wall_max = 0, proc_wall_mean = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    CellRun r;
    try {
      r = RunCell(cells[i], tracer, pass_span);
    } catch (const std::exception& e) {
      check.Threw(i, pass, e.what());
      continue;
    }
    check.Check(i, r, pass);

    const double host = r.run_s + r.collect_s + r.teardown_s;
    m["host_s"] += host;
    m["cell."+ cells[i].label + ".host_s"] = host;
    m["setup_s"] += r.construct_s + r.ctor_s + r.setup_s;
    m["apps.construct_s"] += r.construct_s;
    m["apps.setup_s"] += r.setup_s;
    m["core.runtime.ctor_s"] += r.ctor_s;
    m["core.runtime.run_s"] += r.run_s;
    m["core.runtime.collect_s"] += r.collect_s;
    m["core.runtime.teardown_s"] += r.teardown_s;

    const RunStats& s = r.stats;
    const CommBreakdown& c = s.comm;
    m["modelled_s"] += s.exec_seconds();
    m["modelled_msgs"] += static_cast<double>(c.total_messages());
    m["modelled_data_mb"] +=
        static_cast<double>(c.total_data_bytes() + c.home_flush_bytes) / kMB;
    useless_bytes += static_cast<double>(c.useless_data_bytes());
    data_bytes += static_cast<double>(c.total_data_bytes());

    const MemoryFootprint& mem = s.mem;
    m["core.gc.passes"] += static_cast<double>(mem.gc_passes);
    m["core.gc.chains_built"] += static_cast<double>(mem.chains_built);
    m["core.gc.chains_shared"] += static_cast<double>(mem.chains_shared);
    m["core.gc.records_elided"] += static_cast<double>(mem.records_elided);
    m["core.gc.reclaimed_intervals"] +=
        static_cast<double>(mem.reclaimed_intervals);
    Max(m, "core.gc.peak_live_intervals",
        static_cast<double>(mem.peak_live_intervals));
    Max(m, "core.gc.peak_archive_mb",
        static_cast<double>(mem.peak_archive_bytes) / kMB);
    Max(m, "core.gc.canonical_base_mb",
        static_cast<double>(mem.canonical_base_peak_bytes) / kMB);

    m["core.fault.read"] += static_cast<double>(c.read_faults);
    m["core.fault.write"] += static_cast<double>(c.write_faults);
    m["core.fault.silent_validations"] +=
        static_cast<double>(c.silent_validations);
    m["core.fault.units_invalidated"] +=
        static_cast<double>(c.units_invalidated);
    m["core.fault.group_prefetch_units"] +=
        static_cast<double>(c.group_prefetch_units);
    // Signature bucket k holds one exchange per writer of every fault that
    // contacted k writers.
    for (std::size_t k = 1; k < c.signature.num_buckets(); ++k) {
      const auto exchanges = static_cast<double>(c.signature.total(k));
      fault_writers += exchanges;
      faults += exchanges / static_cast<double>(k);
    }

    m["comm.useful_msgs"] += static_cast<double>(c.useful_messages);
    m["comm.useless_msgs"] += static_cast<double>(c.useless_messages);
    m["comm.sync_msgs"] += static_cast<double>(c.sync_messages);
    m["comm.useful_mb"] += static_cast<double>(c.useful_data_bytes) / kMB;
    m["comm.piggyback_useless_mb"] +=
        static_cast<double>(c.piggyback_useless_bytes) / kMB;
    m["comm.useless_msg_mb"] +=
        static_cast<double>(c.useless_msg_data_bytes) / kMB;

    m["mem.twins_created"] += static_cast<double>(c.twins_created);
    m["mem.diffs_created"] += static_cast<double>(c.diffs_created);
    m["mem.diffs_applied"] += static_cast<double>(c.diffs_applied);
    m["mem.delivered_mb"] += static_cast<double>(c.delivered_data_bytes) / kMB;

    m["core.hlrc.home_flushes"] += static_cast<double>(c.home_flushes);
    m["core.hlrc.home_flush_mb"] +=
        static_cast<double>(c.home_flush_bytes) / kMB;
    m["core.hlrc.home_fetches"] += static_cast<double>(c.home_fetches);
    m["core.hlrc.home_fetch_mb"] +=
        static_cast<double>(c.home_fetch_bytes) / kMB;

    for (std::size_t k = 0; k < kNumMessageKinds; ++k) {
      const auto kind = static_cast<MessageKind>(k);
      const std::string net = std::string("net.") + MessageKindName(kind);
      m[net + ".msgs"] += static_cast<double>(s.net.messages(kind));
      m[net + ".mb"] += static_cast<double>(s.net.bytes(kind)) / kMB;
    }

    double node_sum = 0;
    for (VirtualNanos t : s.node_times) node_sum += static_cast<double>(t);
    node_mean_s += node_sum / static_cast<double>(s.node_times.size()) /
                   static_cast<double>(kNanosPerSecond);

    if (!r.procs.empty()) {
      double wall_sum = 0, wall_max = 0;
      for (const ProcSample& p : r.procs) {
        const double wall = Seconds(p.end - p.begin);
        wall_sum += wall;
        wall_max = std::max(wall_max, wall);
        m["core.run.proc_cpu_s"] += p.cpu_s;
      }
      m["core.run.proc_wall_s"] += wall_sum;
      proc_wall_max += wall_max;
      proc_wall_mean += wall_sum / static_cast<double>(r.procs.size());
    }
  }
  if (tracer != nullptr) tracer->SetEnd(pass_span, Clock::now());

  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  m["useless_data_frac"] = ratio(useless_bytes, data_bytes);
  m["core.fault.writers_per_fault"] = ratio(fault_writers, faults);
  m["sim.node_time_imbalance"] = ratio(m["modelled_s"], node_mean_s);
  if (tracer != nullptr) {
    const double cpu = m["core.run.proc_cpu_s"];
    const double wall = m["core.run.proc_wall_s"];
    m["core.run.blocked_frac"] = wall > 0 ? 1 - cpu / wall : 0;
    m["core.run.cores_busy"] = ratio(cpu, m["core.runtime.run_s"]);
    m["core.run.proc_imbalance"] = ratio(proc_wall_max, proc_wall_mean);
  }
  return m;
}

// --- summary ---------------------------------------------------------------

struct Summary {
  double median = 0, q1 = 0, q3 = 0;
  std::size_t n = 0;
};

// Median and quartiles as Python's statistics.quantiles(values, n=4)
// computes them (its default "exclusive" method).
Summary Summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  if (n == 1) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  auto quartile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - 4.0 * j;
    return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

Summary Summarize(const std::vector<Metrics>& passes,
                  const std::string& name) {
  std::vector<double> values;
  for (const Metrics& m : passes) values.push_back(m.at(name));
  return Summarize(std::move(values));
}

// One `"name": {median, q1, q3, n}` member of the result object.
std::string Member(const std::string& name, const Summary& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"median\": %.17g, \"q1\": %.17g, \"q3\": %.17g, \"n\": %zu}",
                s.median, s.q1, s.q3, s.n);
  return JsonString(name) + ": " + buf;
}

void Append(std::string& list, const std::string& member) {
  list += (list.empty() ? "" : ", ") + member;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / kMB;  // ru_maxrss: KiB
}

const char* Compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

// --- flags -----------------------------------------------------------------

[[noreturn]] void UsageExit(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "dsm_bench: %s\n", error);
  std::fprintf(stderr,
               "usage: dsm_bench --workload=NAME [--seconds=S] [--seed=N] "
               "[--trace=PATH]\n  NAME is one of:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr,
               "\n  S: whole seconds of timed passes (1-3600, default 20)\n"
               "  N: unsigned 64-bit input seed (default 0: the paper "
               "datasets)\n");
  std::exit(2);
}

// The whole token must be a base-10 unsigned integer within [min, max]:
// strtoull alone accepts '-1', leading blanks and trailing garbage.
std::uint64_t ParseUnsigned(const char* flag, const char* s, std::uint64_t min,
                            std::uint64_t max) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*s < '0' || *s > '9' || errno != 0 || *end != '\0' || v < min ||
      v > max) {
    const std::string msg =
        std::string(flag) + ": invalid value '" + s + "'";
    UsageExit(msg.c_str());
  }
  return v;
}

}  // namespace
}  // namespace dsm::perf

int main(int argc, char** argv) {
  using namespace dsm::perf;
  const Workload* workload = nullptr;
  std::uint64_t seconds = 20;
  std::uint64_t seed = 0;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--workload=", 11) == 0) {
      workload = nullptr;
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(a + 11, w.name) == 0) workload = &w;
      }
      if (workload == nullptr) {
        const std::string msg = std::string("unknown workload '") + (a + 11) +
                                "'";
        UsageExit(msg.c_str());
      }
    } else if (std::strncmp(a, "--seconds=", 10) == 0) {
      seconds = ParseUnsigned("--seconds", a + 10, 1, 3600);
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      seed = ParseUnsigned("--seed", a + 7, 0, UINT64_MAX);
    } else if (std::strncmp(a, "--trace=", 8) == 0 && a[8] != '\0') {
      trace_path = a + 8;
    } else {
      const std::string msg = std::string("unknown flag '") + a + "'";
      UsageExit(msg.c_str());
    }
  }
  if (workload == nullptr) UsageExit("--workload is required");

  // The budget covers the whole run, warm-up included.
  const auto start = Clock::now();
  const Plan plan = BuildPlan(*workload, seed);
  const std::vector<Cell>& cells = plan.cells;
  Checker check(plan, workload->kv_dataset == nullptr);
  Tracer tracer(start);
  Tracer* const traced = trace_path.empty() ? nullptr : &tracer;

  auto report = [](const char* what, const Metrics& m, double secs) {
    std::fprintf(stderr, "%-8s host %.4f s  (%.1f s)\n", what, m.at("host_s"),
                 secs);
  };
  auto pass_start = Clock::now();
  const Metrics warmup = RunPass(cells, check, nullptr, 0);
  report("warm-up", warmup, Seconds(Clock::now() - pass_start));

  // Timed passes until the next would overrun the budget.  With tracing,
  // traced and untraced passes alternate so that slow drift of the host
  // cancels out of trace.overhead_frac.
  std::vector<Metrics> plain, traced_passes;
  for (int pass = 1; check.failed() == 0; ++pass) {
    const bool trace_this = traced != nullptr && pass % 2 == 0;
    pass_start = Clock::now();
    Metrics m = RunPass(cells, check, trace_this ? traced : nullptr, pass);
    const auto now = Clock::now();
    report(trace_this ? "traced" : "timed", m, Seconds(now - pass_start));
    (trace_this ? traced_passes : plain).push_back(std::move(m));
    const bool enough = traced != nullptr
                            ? !plain.empty() && !traced_passes.empty()
                            : plain.size() >= kMinPasses;
    if (enough && Seconds(now - start) + Seconds(now - pass_start) >
                      static_cast<double>(seconds)) {
      break;
    }
  }
  if (traced != nullptr && !tracer.Write(trace_path)) {
    std::fprintf(stderr, "dsm_bench: cannot write %s\n", trace_path.c_str());
    return 1;
  }

  std::string e2e;
  for (const char* name : kEndToEnd) {
    Append(e2e, Member(name, Summarize(plain, name)));
  }
  Append(e2e, Member("peak_rss_mb", Summarize({PeakRssMb()})));

  std::string layers;
  if (!traced_passes.empty()) {
    for (const auto& entry : traced_passes.front()) {
      const std::string& name = entry.first;
      if (std::find(std::begin(kEndToEnd), std::end(kEndToEnd), name) ==
          std::end(kEndToEnd)) {
        Append(layers, Member(name, Summarize(traced_passes, name)));
      }
    }
    const double overhead = Summarize(traced_passes, "host_s").median /
                                Summarize(plain, "host_s").median -
                            1;
    Append(layers, Member("trace.overhead_frac", Summarize({overhead})));
  }

  const std::string trace_file =
      trace_path.empty() ? "null" : JsonString(trace_path);
  std::printf(
      "{\"workload\": \"%s\", \"correct\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"provenance\": {\"nproc\": %u, \"compiler\": %s, "
      "\"build_type\": \"%s\", \"num_procs\": %d, \"seed\": %llu, "
      "\"inputs\": \"%s\", \"seconds\": %llu, \"warmup_passes\": 1, "
      "\"passes\": %zu, \"traced_passes\": %zu, \"trace_file\": %s, "
      "\"wall_s\": %.3f}, \"end_to_end\": {%s}, \"per_layer\": {%s}}\n",
      workload->name, check.failed() == 0 ? "true" : "false",
      static_cast<unsigned long long>(check.attempted()),
      static_cast<unsigned long long>(check.failed()),
      std::thread::hardware_concurrency(), JsonString(Compiler()).c_str(),
      PAGEDSM_BENCH_BUILD_TYPE, kNumProcs,
      static_cast<unsigned long long>(seed),
      seed == 0 ? "paper datasets" : "seeded",
      static_cast<unsigned long long>(seconds), plain.size(),
      traced_passes.size(), trace_file.c_str(),
      Seconds(Clock::now() - start), e2e.c_str(), layers.c_str());
  return check.failed() == 0 ? 0 : 1;
}
