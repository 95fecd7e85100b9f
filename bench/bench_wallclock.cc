// Host wall-clock benchmark gate for the simulator's hot paths.
//
// Runs the cells of the bench catalogue (BenchCells(), apps/registry.h) at
// their paper-sized datasets: every cell of the paper benches' figures and
// Table 1, the classic {4 K, 16 K, Dyn} × {LRC, HLRC} cells of each
// application, and the scaling, fault, fault-sweep and KV slices.  It
// reports, per row:
//
//   * host wall-clock (what engine optimizations are allowed to change),
//   * modelled execution time (what they must NOT change),
//   * dsm::ModelledFingerprint — a 64-bit FNV-1a over the result checksum
//     bits and the hashed modelled state (ForEachModelledValue,
//     core/runtime.h).
//
// Rows whose application's modelled state is bit-reproducible at a fixed
// configuration (ConformanceScenario::modelled_stable) are marked
// "stable": their fingerprint must be bit-identical across engine changes,
// making this binary a before/after gate for performance work.  Results
// land in BENCH_wallclock.json at the repository root (override with
// --out=PATH) so the perf trajectory is tracked from PR to PR.
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/kvstore.h"
#include "apps/registry.h"

namespace dsm::bench {
namespace {

struct Row {
  apps::BenchCell cell;  // as run: --procs and --fault applied
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
      "usage: bench_wallclock [--slice=NAME] [--app=SUBSTR] [--mode=SUBSTR]\n"
      "                       [--backend=LRC|HLRC] [--procs=N[,N...]] "
      "[--gc=N]\n"
      "                       [--fault=EVENT[+EVENT...]|seed:S] "
      "[--race=on|off]\n"
      "                       [--out=PATH] [--baseline=PATH]\n"
      "  With no flags, runs every cell of the bench catalogue once.\n"
      "  --slice=NAME runs one slice of it: classic, fig1, fig2, fig3,\n"
      "  table1, ablation, scaling, fault, fault-sweep or kv.\n"
      "  A run that filters or overrides without --slice runs the classic\n"
      "  slice.  --procs and --fault replace every selected cell's\n"
      "  processor count and crash schedule.\n"
      "  EVENT is barrier:V@N (kill proc V at its N-th barrier) or\n"
      "  release:V@M (kill proc V after its M-th interval close); '+'\n"
      "  chains events into an ordered multi-fault schedule.  Any victim\n"
      "  is legal, proc 0 included.  seed:S derives the whole schedule\n"
      "  from the 64-bit seed S.  --race=on runs the sweep under\n"
      "  the happens-before race checker (DESIGN.md §10): host wall-clock\n"
      "  pays for the shadow analysis, modelled numbers and fingerprints\n"
      "  are bit-identical to --race=off.  --baseline=PATH exits 1 when a\n"
      "  row's result, or a stable row's fingerprint, modelled_ms or GC\n"
      "  counters, differs from the matching row of PATH, when a row has\n"
      "  no match in PATH, or, on the full sweep, when a row of PATH was\n"
      "  not run.\n");
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

Row RunCell(const apps::BenchCell& cell, const RuntimeConfig& cfg) {
  auto app = apps::MakeApp(cell.app, cell.dataset);
  const auto t0 = std::chrono::steady_clock::now();
  const apps::AppRun run = apps::Execute(*app, cfg);
  const auto t1 = std::chrono::steady_clock::now();

  Row row;
  row.cell = cell;
  row.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  row.modelled_ms = run.stats.exec_seconds() * 1e3;
  row.result = run.result;
  row.fingerprint = ModelledFingerprint(run.result, run.stats);
  row.recovery_ms =
      static_cast<double>(run.stats.comm.recovery_modelled_ns) / 1e6;
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
};

// Minimal reader for the JSON this binary itself writes (one row object
// per line): extracts each row's key and what the gate compares.
struct BaselineRow {
  std::string key;  // BenchCell::Key() of the row's cell
  bool stable = false;
  double wall_ms = 0;  // printed, never gated
  // Modelled state as written: the fingerprint's hex digits and
  // modelled_ms's %.6f text, compared as strings.
  std::string fingerprint, modelled_ms;
  // Result checksum, %.17g-round-tripped (exact for doubles).  Every
  // row gates on it: a lock row's modelled state follows the host's grant
  // order, but its result is exact.
  double result = 0;
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
  // The value of `"name": ` on the line: a string's contents or a
  // number's text, "" when the field is absent (failure-free rows carry
  // no fault, and only fault-sweep rows a gc_lag).
  auto field = [&line](const char* name) -> std::string {
    const std::string key = std::string("\"") + name + "\": ";
    const char* p = std::strstr(line, key.c_str());
    if (p == nullptr) return {};
    p += key.size();
    if (*p == '"') return std::string(p + 1, std::strchr(p + 1, '"'));
    return std::string(p, std::strcspn(p, ",}"));
  };
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    const std::string app = field("app");
    if (app.empty()) continue;
    const apps::BenchCell cell{.app = app,
                               .dataset = field("dataset"),
                               .unit = field("mode"),
                               .backend = field("backend"),
                               .procs = std::atoi(field("procs").c_str()),
                               .fault = field("fault"),
                               .gc_lag = std::atoi(field("gc_lag").c_str())};
    BaselineRow r;
    r.key = cell.Key();
    r.stable = field("stable") == "true";
    r.wall_ms = std::atof(field("wall_ms").c_str());
    r.fingerprint = field("fingerprint");
    r.modelled_ms = field("modelled_ms");
    r.result = std::atof(field("result").c_str());
    for (const MemoryJsonField& mf : kMemoryJsonFields) {
      if (mf.gated) {
        r.mem.*mf.member =
            std::strtoull(field(mf.json_name).c_str(), nullptr, 10);
      }
    }
    rows.push_back(std::move(r));
  }
  std::fclose(f);
  return rows;
}

// Gate: modelled state must be bit-identical to the committed baseline.
// Every row fails when its result moves; a stable row also fails when its
// fingerprint or modelled_ms (as written) or one of its gated GC counters
// differs.  A row the gate cannot compare fails too: a sweep row with no
// baseline match and, when `full_sweep`, a baseline row the sweep did not
// run.  Host wall-clock is printed for every matched row but never gates:
// one sample of one row moves 2x from run to run on a shared host, so host
// time is gated by benchmark/run.py's repeated parent/change pairs
// instead.  Returns the number of failing rows.
int CompareToBaseline(const std::vector<Row>& rows,
                      const std::vector<BaselineRow>& baseline,
                      bool full_sweep) {
  int failures = 0;
  std::vector<bool> matched(baseline.size(), false);
  for (const Row& r : rows) {
    const std::string key = r.cell.Key();
    const BaselineRow* base = nullptr;
    for (std::size_t i = 0; i < baseline.size() && base == nullptr; ++i) {
      if (baseline[i].key == key) {
        base = &baseline[i];
        matched[i] = true;
      }
    }
    if (base == nullptr) {
      ++failures;
      std::printf("baseline: %s not in baseline  MISMATCH\n", key.c_str());
      continue;
    }
    char fingerprint[24];
    std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                  static_cast<unsigned long long>(r.fingerprint));
    char modelled_ms[48];
    std::snprintf(modelled_ms, sizeof(modelled_ms), "%.6f", r.modelled_ms);
    const bool result_moved = r.result != base->result;
    const bool compared = r.cell.stable && base->stable;
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
    const bool moved = result_moved || state_moved || !gc_moved.empty();
    std::printf("baseline: %-54s wall %8.1f -> %8.1f ms%s\n", key.c_str(),
                base->wall_ms, r.wall_ms, moved ? "  MISMATCH" : "");
    if (moved) ++failures;
    if (result_moved) {
      std::printf("          result %.17g -> %.17g\n", base->result,
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
                baseline[i].key.c_str());
  }
  if (failures > 0) {
    std::printf(
        "baseline gate FAILED: %d row(s) changed result, modelled state or "
        "GC counters, or were unmatched\n",
        failures);
  } else {
    std::printf(
        "baseline gate passed: results, modelled state and GC counters "
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
    const apps::BenchCell& c = r.cell;
    // Failure-free rows omit the fault/recovery fields entirely
    // (zero-entry skip rule): a pre-fault baseline and a regenerated one
    // stay line-for-line comparable on every pre-existing row.  Fault
    // rows carry the full schedule spec plus the recovery-cost axis
    // (modelled recovery latency, recovery bytes, retransmits), and
    // fault-sweep rows add the gc_lag point they were run at.
    std::string fault_field =
        c.fault.empty() ? "" : "\"fault\": \"" + c.fault + "\", ";
    // Race column, keyed on the flag (not the count): a checked row with
    // zero races records "certified clean", an unchecked row omits the
    // field so --race=off output is line-for-line the pre-detector shape.
    if (r.race_checked) {
      fault_field += "\"races\": " + std::to_string(r.races) + ", ";
    }
    if (!c.fault.empty() && c.gc_lag > 0) {
      fault_field += "\"gc_lag\": " + std::to_string(c.gc_lag) + ", ";
    }
    if (!c.fault.empty()) {
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
        c.app.c_str(), c.dataset.c_str(), c.unit.c_str(), c.backend.c_str(),
        fault_field.c_str(), c.procs, c.stable ? "true" : "false", r.wall_ms,
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
  std::string slice, app_filter, mode_filter, backend_filter, baseline_path;
  std::string fault_spec;  // failure-free unless --fault= is given
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
    } else if (std::strncmp(argv[i], "--slice=", 8) == 0) {
      slice = argv[i] + 8;
      if (dsm::apps::SliceCells(slice).empty()) {
        UsageError("--slice: unknown slice '" + slice + "'");
      }
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
    } else if (std::strncmp(argv[i], "--race=", 7) == 0) {
      race_check = ParseRaceFlag(argv[i] + 7);
    } else {
      UsageError(std::string("unknown flag '") + argv[i] + "'");
    }
  }
  // A run that filters or overrides cells without --slice selects the
  // classic slice.  Any sliced run is partial: it never silently clobbers
  // the tracked full-sweep baseline at the default path, and the gate
  // does not ask it for every baseline row.  --race=on is partial too:
  // modelled numbers and fingerprints are bit-identical either way, but
  // the host wall-clock pays for the shadow analysis and must not
  // overwrite the tracked unchecked trajectory.
  if (slice.empty() &&
      (!app_filter.empty() || !mode_filter.empty() ||
       !backend_filter.empty() || !procs_list.empty() ||
       !fault_spec.empty() || race_check ||
       gc_interval != dsm::RuntimeConfig{}.gc_interval_barriers)) {
    slice = "classic";
  }
  const bool partial = !slice.empty();
  auto matches = [](const std::string& filter, const std::string& value) {
    return filter.empty() || value.find(filter) != std::string::npos;
  };
  std::vector<dsm::apps::BenchCell> cells;
  std::set<std::string> keys;  // --procs can turn two cells into one
  for (dsm::apps::BenchCell c : partial ? dsm::apps::SliceCells(slice)
                                        : dsm::apps::BenchCells()) {
    if (!matches(app_filter, c.app) || !matches(mode_filter, c.unit) ||
        (!backend_filter.empty() && backend_filter != c.backend)) {
      continue;
    }
    if (!fault_spec.empty()) c.fault = fault_spec;
    for (int np : procs_list.empty() ? std::vector<int>{c.procs}
                                     : procs_list) {
      c.procs = np;
      if (keys.insert(c.Key()).second) cells.push_back(c);
    }
  }

  // Build and validate every cell's config before the first row runs: a
  // schedule, --procs or --gc value that Validate() rejects is a usage
  // error, not an abort part-way through the sweep.
  std::vector<dsm::RuntimeConfig> configs;
  for (const dsm::apps::BenchCell& c : cells) {
    try {
      configs.push_back(c.Config());
      configs.back().gc_interval_barriers = gc_interval;
      configs.back().race_check = race_check;
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
    const dsm::apps::BenchCell& c = row.cell;
    std::printf(
        "%-8s %-10s %-4s %-4s %5d %10.1f %14.3f  %016llx %-6s %12llu "
        "%14llu%s%s",
        c.app.c_str(), c.dataset.c_str(), c.unit.c_str(), c.backend.c_str(),
        c.procs, row.wall_ms, row.modelled_ms,
        static_cast<unsigned long long>(row.fingerprint),
        c.stable ? "yes" : "no",
        static_cast<unsigned long long>(row.mem.peak_live_intervals),
        static_cast<unsigned long long>(row.mem.peak_archive_bytes / 1024),
        c.fault.empty() ? "" : "  fault=", c.fault.c_str());
    if (row.race_checked) {
      std::printf("  races=%llu", static_cast<unsigned long long>(row.races));
    }
    if (!c.fault.empty()) {
      std::printf("  lag=%d recovery=%.3fms/%lluB/%llu rexmit", c.gc_lag,
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
