// Host wall-clock benchmark gate for the simulator's hot paths.
//
// Runs the conformance applications at scaled-up (paper-sized) datasets
// under the three aggregation modes of the sweep, for both protocol
// backends ({4 K, 16 K, Dyn} × {LRC, HLRC}; filter with --backend=), and
// reports, per row:
//
//   * host wall-clock (what engine optimizations are allowed to change),
//   * modelled execution time (what they must NOT change),
//   * dsm::ModelledFingerprint — a 64-bit FNV-1a over the result checksum
//     bits and the hashed modelled state (ForEachModelledValue,
//     core/runtime.h).
//
// Rows whose application is bit-deterministic at a fixed configuration
// (every conformance scenario with rel_tol == 0) are marked "stable": their
// fingerprint must be bit-identical across engine changes, making this
// binary a before/after gate for performance work.  Results land in
// BENCH_wallclock.json at the repository root (override with --out=PATH)
// so the perf trajectory is tracked from PR to PR.
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/kvstore.h"
#include "apps/registry.h"

namespace dsm::bench {
namespace {

struct ModePoint {
  const char* label;
  AggregationMode mode;
  int pages_per_unit;
};

// The conformance sweep's aggregation modes (tests/test_conformance.cc).
const ModePoint kModes[] = {
    {"4K", AggregationMode::kStatic, 1},
    {"16K", AggregationMode::kStatic, 4},
    {"Dyn", AggregationMode::kDynamic, 1},
};

struct BenchScenario {
  const char* app;
  const char* dataset;  // scaled-up counterpart of the "tiny" scenario
  bool stable;          // rel_tol == 0 in the conformance catalogue
};

// One row per conformance application, at the smallest paper-sized dataset
// (the "tiny" conformance inputs finish in microseconds and would measure
// only startup).  Water and TSP synchronize through locks, whose grant
// order depends on host scheduling — their modelled state is not
// bit-reproducible run to run, so they are benchmarked but not gated.
const BenchScenario kScenarios[] = {
    {"Jacobi", "1Kx1K", true},    {"MGS", "1Kx1K", true},
    {"3D-FFT", "64x64x32", true}, {"Shallow", "1Kx0.5K", true},
    {"Barnes", "16K", true},      {"ILINK", "CLP", true},
    {"Water", "512", false},      {"TSP", "11-city", false},
};

// Protocol backends benched side by side: the paper's LRC and the
// home-based counterpart (DESIGN.md §7).  The reference oracle is a
// correctness tool, not a performance point, so it is not swept here.
struct BackendPoint {
  const char* label;
  BackendKind backend;
};

const BackendPoint kBackends[] = {
    {"LRC", BackendKind::kLrc},
    {"HLRC", BackendKind::kHlrc},
};

struct Row {
  std::string app, dataset, mode, backend;
  std::string fault;  // crash-schedule spec, "" = failure-free row
  int procs = 8;
  int gc_lag = 0;  // non-default gc_lag_barriers for fault-sweep rows
  bool stable = false;
  // --race=on: the happens-before checker ran; `races` is its report
  // count.  Host-side observation only — excluded from the fingerprint
  // (like mem), which must stay bit-identical to a --race=off sweep.
  bool race_checked = false;
  std::uint64_t races = 0;
  double wall_ms = 0;
  double modelled_ms = 0;
  double result = 0;
  std::uint64_t fingerprint = 0;
  // Recovery-cost axis (fault rows only): modelled recovery latency and
  // the bytes/retransmits the rebuilds put on the books.
  double recovery_ms = 0;
  std::uint64_t recovery_bytes = 0;
  std::uint64_t recovery_retransmits = 0;
  // KV rows only: modelled request count and throughput
  // (requests / modelled execution time).  Derived from modelled numbers
  // but — like the mem telemetry — excluded from the fingerprint: KV is
  // lock-scheduled, so its modelled time is not bit-stable anyway.
  std::uint64_t kv_requests = 0;
  double kv_rps = 0;
  MemoryFootprint mem;
};

void Usage(std::FILE* f) {
  std::fprintf(
      f,
      "usage: bench_wallclock [--procs=N[,N...]] [--gc=N] [--app=SUBSTR]\n"
      "                       [--mode=SUBSTR] [--backend=LRC|HLRC]\n"
      "                       [--fault=EVENT[+EVENT...]|seed:S]\n"
      "                       [--fault-sweep] [--kv-sweep] [--race=on|off] "
      "[--out=PATH] [--baseline=PATH]\n"
      "  EVENT is barrier:V@N (kill proc V at its N-th barrier) or\n"
      "  release:V@M (kill proc V after its M-th interval close); '+'\n"
      "  chains events into an ordered multi-fault schedule.  Any victim\n"
      "  is legal, proc 0 included.  seed:S derives the whole schedule\n"
      "  from the 64-bit seed S.  --fault-sweep runs the recovery-cost\n"
      "  slice: a proc-0 + home-crash schedule across gc_lag_barriers\n"
      "  in {1,2,4,8} on both backends.  --kv-sweep runs the KV request\n"
      "  slice: the three KV mixes (read-mostly / write-heavy / hot, each\n"
      "  >= 1M modelled requests) on both backends, reporting modelled\n"
      "  requests/sec per row.  --race=on runs the sweep under\n"
      "  the happens-before race checker (DESIGN.md §10): host wall-clock\n"
      "  pays for the shadow analysis, modelled numbers and fingerprints\n"
      "  are bit-identical to --race=off.  --baseline=PATH exits 1 when a\n"
      "  stable row's fingerprint, modelled_ms or GC counters, or a KV\n"
      "  row's checksum, differs from the matching row of PATH, when a row\n"
      "  has no match in PATH, or, on the full sweep, when a row of PATH\n"
      "  was not run.\n");
}

[[noreturn]] void UsageError(const std::string& msg) {
  std::fprintf(stderr, "%s\n", msg.c_str());
  Usage(stderr);
  std::exit(2);
}

// --race takes exactly "on" or "off" — the same whole-token strictness as
// ParseCount: a typo ('--race=On', '--race=1') must not silently run an
// unchecked sweep that is then read as a clean race report.
bool ParseRaceFlag(const char* s) {
  if (std::strcmp(s, "on") == 0) return true;
  if (std::strcmp(s, "off") == 0) return false;
  UsageError(std::string("--race: invalid value '") + s + "' (want on|off)");
}

// Validated numeric flag parsing: the whole token must be a base-10
// integer >= min_value.  std::atoi silently turned garbage ('--procs=8x',
// '--gc=') into 0 and ran a nonsense sweep; reject with a usage error.
int ParseCount(const char* flag, const char* s, int min_value) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || v < min_value ||
      v > 1 << 20) {
    UsageError(std::string(flag) + ": invalid value '" + s +
               "' (integer >= " + std::to_string(min_value) + " required)");
  }
  return static_cast<int>(v);
}

// --procs accepts a comma-separated sweep list ("--procs=8,16,64").
std::vector<int> ParseProcsList(const char* s) {
  std::vector<int> list;
  std::string token;
  for (const char* p = s;; ++p) {
    if (*p != '\0' && *p != ',') {
      token.push_back(*p);
      continue;
    }
    list.push_back(ParseCount("--procs", token.c_str(), 1));
    token.clear();
    if (*p == '\0') break;
  }
  return list;
}

// One sweep cell: where a row runs and the --fault spec it runs under.
struct Cell {
  BenchScenario scenario;
  ModePoint mode;
  BackendPoint backend;
  int procs = 8;
  std::string fault;  // crash-schedule spec, "" = failure-free
  int gc_lag = 0;     // non-default gc_lag_barriers for fault-sweep rows
};

// The cell's config; throws std::invalid_argument for a malformed fault
// spec (FaultSchedule::Parse), but leaves range checks to Validate().
RuntimeConfig CellConfig(const Cell& c, int gc_interval, bool race_check) {
  RuntimeConfig cfg;
  cfg.num_procs = c.procs;
  cfg.aggregation = c.mode.mode;
  cfg.pages_per_unit = c.mode.pages_per_unit;
  cfg.backend = c.backend.backend;
  cfg.gc_interval_barriers = gc_interval;
  if (!c.fault.empty()) cfg.fault = FaultSchedule::Parse(c.fault, c.procs);
  cfg.race_check = race_check;
  if (c.gc_lag > 0) cfg.gc_lag_barriers = c.gc_lag;
  return cfg;
}

Row RunCell(const Cell& c, const RuntimeConfig& cfg) {
  const BenchScenario& s = c.scenario;
  auto app = apps::MakeApp(s.app, s.dataset);
  const auto t0 = std::chrono::steady_clock::now();
  const apps::AppRun run = apps::Execute(*app, cfg);
  const auto t1 = std::chrono::steady_clock::now();

  Row row;
  row.app = s.app;
  row.dataset = s.dataset;
  row.mode = c.mode.label;
  row.backend = c.backend.label;
  row.fault = c.fault;
  row.procs = cfg.num_procs;
  row.gc_lag = c.gc_lag;
  row.stable = s.stable;
  row.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  row.modelled_ms = run.stats.exec_seconds() * 1e3;
  row.result = run.result;
  row.fingerprint = ModelledFingerprint(run.result, run.stats);
  row.recovery_ms =
      static_cast<double>(run.stats.recovery_modelled_ns) / 1e6;
  row.recovery_bytes = run.stats.comm.recovery_data_bytes;
  row.recovery_retransmits = run.stats.comm.recovery_retransmits;
  row.race_checked = run.stats.races.checked;
  row.races = run.stats.races.reports.size() + run.stats.races.dropped;
  if (const auto* kv = dynamic_cast<const apps::KvStore*>(app.get())) {
    row.kv_requests = kv->ModelledRequests(cfg.num_procs);
    const double modelled_s = run.stats.exec_seconds();
    if (modelled_s > 0) {
      row.kv_rps = static_cast<double>(row.kv_requests) / modelled_s;
    }
  }
  row.mem = run.stats.mem;
  return row;
}

// The MemoryFootprint columns of a JSON row, in output order (host-side
// telemetry, outside the fingerprint).  `gated` columns replay exactly at
// a fixed configuration, so the gate compares them on stable rows; the
// two archive peaks sample archive appends, which host scheduling orders,
// and are only reported.
struct MemoryJsonField {
  const char* json_name;
  std::uint64_t MemoryFootprint::*member;
  bool gated;
};
const MemoryJsonField kMemoryJsonFields[] = {
    {"peak_live_intervals", &MemoryFootprint::peak_live_intervals, false},
    {"peak_archive_bytes", &MemoryFootprint::peak_archive_bytes, false},
    {"reclaimed_intervals", &MemoryFootprint::reclaimed_intervals, true},
    {"canonical_base_bytes", &MemoryFootprint::canonical_base_peak_bytes,
     true},
    {"gc_passes", &MemoryFootprint::gc_passes, true},
    {"chains_built", &MemoryFootprint::chains_built, true},
    {"chains_shared", &MemoryFootprint::chains_shared, true},
    {"records_elided", &MemoryFootprint::records_elided, true},
};

// Minimal reader for the JSON this binary itself writes (one row object
// per line): extracts each row's key fields and what the gate compares.
struct BaselineRow {
  std::string app, dataset, mode, backend;
  std::string fault;  // absent in pre-fault baselines → ""
  int procs = 8;
  int gc_lag = 0;  // absent outside fault-sweep rows → 0
  bool stable = false;
  double wall_ms = 0;  // printed, never gated
  // Modelled state as written: the fingerprint's hex digits and
  // modelled_ms's %.6f text, compared as strings.
  std::string fingerprint, modelled_ms;
  // Result checksum, %.17g-round-tripped (exact for doubles).  KV rows
  // gate on this instead of the fingerprint: their modelled state is
  // lock-schedule dependent, but the commuting checksum must never move.
  double result = 0;
  bool has_result = false;
  MemoryFootprint mem;  // the gated kMemoryJsonFields columns (absent → 0)
};

std::vector<BaselineRow> ReadBaseline(const std::string& path) {
  std::vector<BaselineRow> rows;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open baseline %s\n", path.c_str());
    return rows;
  }
  char line[2048];
  auto field = [](const char* s, const char* key) -> std::string {
    const char* p = std::strstr(s, key);
    if (p == nullptr) return {};
    p += std::strlen(key);
    const char* e = std::strchr(p, '"');
    return e != nullptr ? std::string(p, e) : std::string();
  };
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strstr(line, "\"app\"") == nullptr) continue;
    BaselineRow r;
    r.app = field(line, "\"app\": \"");
    r.dataset = field(line, "\"dataset\": \"");
    r.mode = field(line, "\"mode\": \"");
    // Baselines written before the backend dimension existed are all LRC.
    r.backend = field(line, "\"backend\": \"");
    if (r.backend.empty()) r.backend = "LRC";
    // Rows written before the fault dimension (or failure-free rows, which
    // omit the field) are all failure-free.
    r.fault = field(line, "\"fault\": \"");
    // Baselines written before the procs dimension are all 8-processor.
    const char* pp = std::strstr(line, "\"procs\": ");
    if (pp != nullptr) r.procs = std::atoi(pp + 9);
    const char* gl = std::strstr(line, "\"gc_lag\": ");
    if (gl != nullptr) r.gc_lag = std::atoi(gl + 10);
    r.stable = std::strstr(line, "\"stable\": true") != nullptr;
    const char* w = std::strstr(line, "\"wall_ms\": ");
    if (w != nullptr) r.wall_ms = std::atof(w + 11);
    r.fingerprint = field(line, "\"fingerprint\": \"");
    const char* m = std::strstr(line, "\"modelled_ms\": ");
    if (m != nullptr) {
      r.modelled_ms.assign(m + 15, std::strcspn(m + 15, ",}"));
    }
    const char* res = std::strstr(line, "\"result\": ");
    if (res != nullptr) {
      r.result = std::atof(res + 10);
      r.has_result = true;
    }
    for (const MemoryJsonField& mf : kMemoryJsonFields) {
      if (!mf.gated) continue;
      char key[64];
      std::snprintf(key, sizeof(key), "\"%s\": ", mf.json_name);
      const char* v = std::strstr(line, key);
      if (v != nullptr) {
        r.mem.*mf.member = std::strtoull(v + std::strlen(key), nullptr, 10);
      }
    }
    if (!r.app.empty()) rows.push_back(std::move(r));
  }
  std::fclose(f);
  return rows;
}

// The key the gate matches a row by, as it prints it: e.g.
// "Jacobi/1Kx1K/4K/LRC/p8", then any fault spec and gc_lag.
template <typename R>
std::string RowKey(const R& r) {
  std::string key = r.app + "/" + r.dataset + "/" + r.mode + "/" +
                    r.backend + "/p" + std::to_string(r.procs);
  if (!r.fault.empty()) key += " " + r.fault;
  if (r.gc_lag > 0) key += " lag=" + std::to_string(r.gc_lag);
  return key;
}

// Gate: modelled state must be bit-identical to the committed baseline.
// A stable row fails when its fingerprint or modelled_ms (as written) or
// one of its gated GC counters differs; a KV row — lock-scheduled, so
// unstable — fails when its commuting checksum moves.  A row the gate
// cannot compare fails too: a sweep row with no baseline match and, when
// `full_sweep`, a baseline row the sweep did not run.  Host wall-clock is
// printed for every matched row but never gates: one sample of one row
// moves 2x from run to run on a shared host, so host time is gated by
// benchmark/run.py's repeated parent/change pairs instead.  Returns the
// number of failing rows.
int CompareToBaseline(const std::vector<Row>& rows,
                      const std::vector<BaselineRow>& baseline,
                      bool full_sweep) {
  int failures = 0;
  std::vector<bool> matched(baseline.size(), false);
  for (const Row& r : rows) {
    const BaselineRow* base = nullptr;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      const BaselineRow& b = baseline[i];
      if (b.app == r.app && b.dataset == r.dataset && b.mode == r.mode &&
          b.backend == r.backend && b.fault == r.fault &&
          b.procs == r.procs && b.gc_lag == r.gc_lag) {
        base = &b;
        matched[i] = true;
        break;
      }
    }
    if (base == nullptr) {
      ++failures;
      std::printf("baseline: %s not in baseline  MISMATCH\n",
                  RowKey(r).c_str());
      continue;
    }
    char fingerprint[24];
    std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                  static_cast<unsigned long long>(r.fingerprint));
    char modelled_ms[48];
    std::snprintf(modelled_ms, sizeof(modelled_ms), "%.6f", r.modelled_ms);
    const bool checksum_moved =
        r.app == "KV" && base->has_result && r.result != base->result;
    const bool compared = r.stable && base->stable;
    const bool state_moved = compared && (base->fingerprint != fingerprint ||
                                          base->modelled_ms != modelled_ms);
    std::string gc_moved;
    for (const MemoryJsonField& mf : kMemoryJsonFields) {
      const std::uint64_t was = base->mem.*mf.member;
      const std::uint64_t now = r.mem.*mf.member;
      if (!compared || !mf.gated || was == now) continue;
      char buf[128];
      std::snprintf(buf, sizeof(buf), " %s %llu -> %llu", mf.json_name,
                    static_cast<unsigned long long>(was),
                    static_cast<unsigned long long>(now));
      gc_moved += buf;
    }
    std::string tag = r.fault;
    if (r.gc_lag > 0) tag += " lag=" + std::to_string(r.gc_lag);
    const bool moved = checksum_moved || state_moved || !gc_moved.empty();
    std::printf("baseline: %-8s %-10s %-4s %-4s p%-3d %-30s wall %8.1f -> "
                "%8.1f ms%s\n",
                r.app.c_str(), r.dataset.c_str(), r.mode.c_str(),
                r.backend.c_str(), r.procs, tag.c_str(), base->wall_ms,
                r.wall_ms, moved ? "  MISMATCH" : "");
    if (moved) ++failures;
    if (checksum_moved) {
      std::printf("          checksum %.17g -> %.17g\n", base->result,
                  r.result);
    }
    if (state_moved) {
      std::printf("          fingerprint %s -> %s, modelled_ms %s -> %s\n",
                  base->fingerprint.c_str(), fingerprint,
                  base->modelled_ms.c_str(), modelled_ms);
    }
    if (!gc_moved.empty()) {
      std::printf("          GC counters:%s\n", gc_moved.c_str());
    }
  }
  for (std::size_t i = 0; full_sweep && i < baseline.size(); ++i) {
    if (matched[i]) continue;
    ++failures;
    std::printf("baseline: %s not in sweep  MISMATCH\n",
                RowKey(baseline[i]).c_str());
  }
  if (failures > 0) {
    std::printf(
        "baseline gate FAILED: %d row(s) changed modelled state or GC "
        "counters, or were unmatched\n",
        failures);
  } else {
    std::printf(
        "baseline gate passed: modelled state and GC counters "
        "bit-identical\n");
  }
  return failures;
}

void WriteJson(const std::vector<Row>& rows, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    // Failure-free rows omit the fault/recovery fields entirely
    // (zero-entry skip rule): a pre-fault baseline and a regenerated one
    // stay line-for-line comparable on every pre-existing row.  Fault
    // rows carry the full schedule spec plus the recovery-cost axis
    // (modelled recovery latency, recovery bytes, retransmits), and
    // fault-sweep rows add the gc_lag point they were run at.
    std::string fault_field =
        r.fault.empty() ? "" : "\"fault\": \"" + r.fault + "\", ";
    // Race column, keyed on the flag (not the count): a checked row with
    // zero races records "certified clean", an unchecked row omits the
    // field so --race=off output is line-for-line the pre-detector shape.
    if (r.race_checked) {
      fault_field += "\"races\": " + std::to_string(r.races) + ", ";
    }
    if (!r.fault.empty() && r.gc_lag > 0) {
      fault_field += "\"gc_lag\": " + std::to_string(r.gc_lag) + ", ";
    }
    if (!r.fault.empty()) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "\"recovery_ms\": %.6f, \"recovery_bytes\": %llu, "
                    "\"recovery_retransmits\": %llu, ",
                    r.recovery_ms,
                    static_cast<unsigned long long>(r.recovery_bytes),
                    static_cast<unsigned long long>(r.recovery_retransmits));
      fault_field += buf;
    }
    // KV request-throughput axis, same zero-entry skip rule: non-KV rows
    // are byte-identical to a build without the column.
    if (r.kv_requests > 0) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "\"requests\": %llu, "
                    "\"modelled_requests_per_sec\": %.3f, ",
                    static_cast<unsigned long long>(r.kv_requests), r.kv_rps);
      fault_field += buf;
    }
    std::string mem_fields;
    for (const MemoryJsonField& m : kMemoryJsonFields) {
      mem_fields += ", \"" + std::string(m.json_name) +
                    "\": " + std::to_string(r.mem.*m.member);
    }
    std::fprintf(
        f,
        "    {\"app\": \"%s\", \"dataset\": \"%s\", \"mode\": "
        "\"%s\", \"backend\": \"%s\", %s\"procs\": %d, \"stable\": %s, "
        "\"wall_ms\": %.3f, "
        "\"modelled_ms\": %.6f, \"result\": %.17g, "
        "\"fingerprint\": \"%016llx\"%s}%s\n",
        r.app.c_str(), r.dataset.c_str(), r.mode.c_str(), r.backend.c_str(),
        fault_field.c_str(), r.procs, r.stable ? "true" : "false", r.wall_ms,
        r.modelled_ms, r.result,
        static_cast<unsigned long long>(r.fingerprint), mem_fields.c_str(),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace dsm::bench

int main(int argc, char** argv) {
  using namespace dsm::bench;
#ifdef PAGEDSM_SOURCE_DIR
  std::string out = std::string(PAGEDSM_SOURCE_DIR) + "/BENCH_wallclock.json";
#else
  std::string out = "BENCH_wallclock.json";
#endif
  std::vector<int> procs_list;
  int gc_interval = dsm::RuntimeConfig{}.gc_interval_barriers;
  std::string app_filter, mode_filter, backend_filter, baseline_path;
  std::string fault_spec;  // failure-free unless --fault= is given
  bool fault_sweep_only = false;
  bool kv_sweep_only = false;
  bool race_check = false;
  bool explicit_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
      explicit_out = true;
    } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      // CI gate (see .github/workflows/ci.yml Release job): compare this
      // sweep's modelled state against the committed BENCH_wallclock.json
      // and exit non-zero if it moved (see CompareToBaseline).
      baseline_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--procs=", 8) == 0) {
      procs_list = ParseProcsList(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--gc=", 5) == 0) {
      gc_interval = ParseCount("--gc", argv[i] + 5, 0);
    } else if (std::strncmp(argv[i], "--app=", 6) == 0) {
      // Row filters for local iteration (case-sensitive substring match,
      // so the full sweep is not the only way to time one app):
      //   --app=MGS --mode=16K
      app_filter = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--mode=", 7) == 0) {
      mode_filter = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--backend=", 10) == 0) {
      // Backend filter is an exact label ("LRC" / "HLRC"): substring
      // matching would make --backend=LRC select both trajectories.
      backend_filter = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--fault=", 8) == 0) {
      // Run every selected row under this crash schedule (DESIGN.md §9).
      // Each cell parses the spec at its own processor count; parsing it
      // here as well makes bad grammar a usage error even when no cell
      // runs under it.  A silently ignored crash spec would report
      // failure-free numbers as a fault row.
      fault_spec = argv[i] + 8;
      try {
        dsm::FaultSchedule::Parse(fault_spec, 2);
      } catch (const std::invalid_argument& e) {
        UsageError(std::string("--fault: ") + e.what());
      }
    } else if (std::strcmp(argv[i], "--fault-sweep") == 0) {
      fault_sweep_only = true;
    } else if (std::strcmp(argv[i], "--kv-sweep") == 0) {
      kv_sweep_only = true;
    } else if (std::strncmp(argv[i], "--race=", 7) == 0) {
      race_check = ParseRaceFlag(argv[i] + 7);
    } else {
      UsageError(std::string("unknown flag '") + argv[i] + "'");
    }
  }
  const bool default_procs = procs_list.empty();
  if (default_procs) procs_list.push_back(8);
  auto matches = [](const std::string& filter, const char* value) {
    return filter.empty() || std::string(value).find(filter) !=
                                 std::string::npos;
  };
  // A filtered (or non-default-GC, non-default-procs, explicitly faulted)
  // run is a partial sweep: never let it silently clobber the tracked
  // full-sweep baseline at the default path.
  // --race=on is partial too: modelled numbers and fingerprints are
  // bit-identical either way, but the host wall-clock pays for the shadow
  // analysis and must not overwrite the tracked unchecked trajectory.
  const bool partial = !app_filter.empty() || !mode_filter.empty() ||
                       !backend_filter.empty() || !default_procs ||
                       !fault_spec.empty() || fault_sweep_only ||
                       kv_sweep_only || race_check ||
                       gc_interval !=
                           dsm::RuntimeConfig{}.gc_interval_barriers;

  std::vector<Cell> cells;
  const BenchScenario jacobi{"Jacobi", "1Kx1K", true};
  // Recovery-cost slice (DESIGN.md §9): a three-event schedule covering a
  // proc-0 coordinator failover and — under HLRC, where every victim is
  // also a home — two home crashes, swept across the GC lag (which sets
  // how much log tail an LRC rebuild must replay above the checkpoint)
  // on both backends.  Part of the full default sweep so the rows are
  // tracked in BENCH_wallclock.json; --fault-sweep runs just this slice.
  auto add_fault_sweep = [&]() {
    for (const BackendPoint& backend : kBackends) {
      for (int lag : {1, 2, 4, 8}) {
        cells.push_back(
            {jacobi, kModes[0], backend, 8, "barrier:0@4+release:2@6", lag});
      }
    }
  };
  // KV request slice (ROADMAP "serve real traffic"): the three bench
  // mixes — each >= 1M modelled requests at the default 8 processors —
  // on both protocol backends at the 4 K base unit, reporting modelled
  // requests/sec.  Rows are unstable (lock-scheduled wall-clock and
  // modelled time) but their checksums are pinned by the --baseline
  // gate: the commuting-checksum result must never move.  Rides the full
  // default sweep; --kv-sweep runs just this slice.
  auto add_kv_sweep = [&]() {
    const BenchScenario kKvMixes[] = {
        {"KV", "read-mostly", false},
        {"KV", "write-heavy", false},
        {"KV", "hot", false},
    };
    for (const BackendPoint& backend : kBackends) {
      for (const BenchScenario& s : kKvMixes) {
        cells.push_back({s, kModes[0], backend, 8, "", 0});
      }
    }
  };
  if (fault_sweep_only || kv_sweep_only) {
    if (fault_sweep_only) add_fault_sweep();
    if (kv_sweep_only) add_kv_sweep();
  } else {
    for (const BackendPoint& backend : kBackends) {
      if (!backend_filter.empty() && backend_filter != backend.label) {
        continue;
      }
      for (const BenchScenario& s : kScenarios) {
        if (!matches(app_filter, s.app)) continue;
        for (const ModePoint& mode : kModes) {
          if (!matches(mode_filter, mode.label)) continue;
          for (int np : procs_list) {
            cells.push_back({s, mode, backend, np, fault_spec, 0});
          }
        }
      }
    }
  }
  // Cluster-scaling trajectory (DESIGN.md §8): the full default sweep also
  // times one bit-deterministic app with the processor count doubling past
  // the paper's native 8, on both backends, so the sharer-directory and
  // clock work is gated at scale from PR to PR.
  if (!partial) {
    for (const BackendPoint& backend : kBackends) {
      for (int np : {16, 32, 64, 128}) {
        cells.push_back({jacobi, kModes[0], backend, np, "", 0});
      }
    }
    // Crash-recovery trajectory (DESIGN.md §9): one barrier app under a
    // kill-at-barrier and a kill-mid-interval schedule, on both backends.
    // Barrier apps recover bit-deterministically, so these rows are
    // stable: the fingerprint pins the post-recovery result AND the full
    // recovery telemetry from PR to PR.
    for (const BackendPoint& backend : kBackends) {
      for (const char* fault : {"barrier:1@4", "release:1@8"}) {
        cells.push_back({jacobi, kModes[0], backend, 8, fault, 0});
      }
    }
    // Recovery-cost axis: the multi-fault gc_lag sweep rides the full
    // default sweep too, so its recovery_ms / recovery_bytes rows are
    // tracked in the committed baseline.
    add_fault_sweep();
    // Request-throughput axis: the KV mixes ride the default sweep so
    // their modelled_requests_per_sec trajectory and pinned checksums
    // are tracked in the committed baseline.
    add_kv_sweep();
  }

  // Build and validate every cell's config before the first row runs: a
  // schedule, --procs or --gc value that Validate() rejects is a usage
  // error, not an abort part-way through the sweep.
  std::vector<dsm::RuntimeConfig> configs;
  for (const Cell& c : cells) {
    try {
      configs.push_back(CellConfig(c, gc_interval, race_check));
      configs.back().Validate();
    } catch (const std::invalid_argument& e) {
      UsageError(e.what());
    }
  }

  std::vector<Row> rows;
  std::printf("%-8s %-10s %-4s %-4s %5s %10s %14s  %-16s %-6s %12s %14s\n",
              "app", "dataset", "cfg", "bknd", "procs", "wall(ms)",
              "modelled(ms)", "fingerprint", "stable", "peak_ivals",
              "peak_arch_KB");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    Row row = RunCell(cells[i], configs[i]);
    std::printf(
        "%-8s %-10s %-4s %-4s %5d %10.1f %14.3f  %016llx %-6s %12llu "
        "%14llu%s%s",
        row.app.c_str(), row.dataset.c_str(), row.mode.c_str(),
        row.backend.c_str(), row.procs, row.wall_ms, row.modelled_ms,
        static_cast<unsigned long long>(row.fingerprint),
        row.stable ? "yes" : "no",
        static_cast<unsigned long long>(row.mem.peak_live_intervals),
        static_cast<unsigned long long>(row.mem.peak_archive_bytes / 1024),
        row.fault.empty() ? "" : "  fault=", row.fault.c_str());
    if (row.race_checked) {
      std::printf("  races=%llu", static_cast<unsigned long long>(row.races));
    }
    if (!row.fault.empty()) {
      std::printf("  lag=%d recovery=%.3fms/%lluB/%llu rexmit", row.gc_lag,
                  row.recovery_ms,
                  static_cast<unsigned long long>(row.recovery_bytes),
                  static_cast<unsigned long long>(row.recovery_retransmits));
    }
    if (row.kv_requests > 0) {
      std::printf("  req=%llu modelled_req/s=%.0f",
                  static_cast<unsigned long long>(row.kv_requests),
                  row.kv_rps);
    }
    std::printf("\n");
    rows.push_back(std::move(row));
  }
  // Read the baseline BEFORE writing results (--out may point at the
  // same file; CI reuses the committed baseline path for the artifact),
  // but always write the fresh sweep before gating — the regressed
  // numbers are the diagnostic.
  std::vector<BaselineRow> baseline;
  if (!baseline_path.empty()) baseline = ReadBaseline(baseline_path);
  if (partial && !explicit_out) {
    std::printf("partial sweep: not writing %s (pass --out= to force)\n",
                out.c_str());
  } else {
    WriteJson(rows, out);
  }
  if (!baseline_path.empty()) {
    if (baseline.empty()) {
      std::fprintf(stderr, "baseline %s empty or unreadable\n",
                   baseline_path.c_str());
      return 2;
    }
    if (CompareToBaseline(rows, baseline, /*full_sweep=*/!partial) > 0) {
      return 1;
    }
  }
  return 0;
}
