#!/usr/bin/env python3
"""Benchmark entry point for the pagedsm simulator (README.md beside this file).

Builds the workload runner from the checkout's sources, runs one workload in
its own process, prints every metric with its unit, and ends with one JSON
result line:

  python3 benchmark/run.py --workload sci-lrc --seed 1 --seconds 20 --trace 0

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json;
with --trace 1 it carries the per-layer metrics, and the spans of the traced
passes are written as Chrome trace-event JSON under the build directory.

Other modes:
  --selftest  checks that malformed flags are refused with exit code 2.
  --repro     runs every workload in two independent sets of REPRO_RUNS runs,
              each run with its own seed, and reports per (metric, workload)
              whether the second set's median is within the metric's bound of
              the first's.  With --write-baseline it also stores the first set
              and one traced run per workload in benchmark/baseline.json.
"""

import argparse
import fcntl
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
BASELINE_PATH = BENCH_DIR / "baseline.json"
# A run takes about --seconds plus one pass; this only stops a hung runner.
RUN_TIMEOUT_S = 120
# Runs per workload in each --repro set, each with its own seed.
REPRO_RUNS = 10


class BenchError(Exception):
    pass


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def runner_path():
    return build_dir() / "dsm_bench"


def build():
    """Configures and builds dsm_bench; a no-op when it is up to date."""
    if not (ROOT / "src").is_dir():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs],
    ]
    # The compiler's temporary files stay in the build tree too.
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    # Runs sharing a checkout must not build into one tree at once.
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            p = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True, env=env)
            if p.returncode != 0:
                sys.stderr.write(p.stdout)
                raise BenchError("build failed: " + " ".join(cmd))


def run_runner(workload, seed, seconds, trace):
    """Runs one workload in its own process; returns the runner's JSON."""
    cmd = [str(runner_path()), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(exist_ok=True)
        cmd.append(f"--trace={traces / f'{workload}-seed{seed}.json'}")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    # Exit code 1 with a result means failed cells, which the result counts.
    if p.returncode not in (0, 1) or not lines:
        raise BenchError(f"runner exited {p.returncode} without a result")
    return json.loads(lines[-1])


def metric_values(out, spec, trace):
    """Maps each metric the spec lists for this mode to (summary, unit)."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    measured = out["per_layer"] if trace else out["end_to_end"]
    names = [m["name"] for m in listed]
    if set(names) != set(measured):
        missing = sorted(set(names) - set(measured))
        extra = sorted(set(measured) - set(names))
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"missing {missing}, unlisted {extra}")
    return {m["name"]: (measured[m["name"]], m["unit"]) for m in listed}


def print_table(out, values):
    prov = out["provenance"]
    print(f"workload {out['workload']}  seed {prov['seed']} "
          f"({prov['inputs']})  passes {prov['passes']} timed + "
          f"{prov['traced_passes']} traced + {prov['warmup_passes']} warm-up  "
          f"{prov['compiler']} {prov['build_type']}  nproc {prov['nproc']}  "
          f"wall {prov['wall_s']:.1f} s")
    if prov["trace_file"]:
        print(f"trace    {prov['trace_file']}")
    print(f"cells    {out['attempted']} checked, {out['failed']} failed")
    for name, (s, unit) in values.items():
        print(f"  {name:36s} {s['median']:16.6f} {unit:6s} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']}]")


def run_one(args, spec):
    build()
    out = run_runner(args.workload, args.seed, args.seconds, args.trace)
    result = {"correct": out["correct"], "attempted": out["attempted"],
              "failed": out["failed"], "metrics": {}}
    if out["correct"]:
        values = metric_values(out, spec, args.trace)
        print_table(out, values)
        result["metrics"] = {name: {"value": s["median"], "unit": unit}
                             for name, (s, unit) in values.items()}
    print(json.dumps(result))
    return 0 if out["correct"] else 1


# --- --selftest ------------------------------------------------------------

def selftest(spec):
    build()
    workload = spec["workloads"][0]["name"]
    w = f"--workload={workload}"
    runner_cases = [
        [], ["--workload=nope"], ["--bogus"], [w, "--seconds=0"],
        [w, "--seconds=5x"], [w, "--seconds="], [w, "--seconds=3601"],
        [w, "--seed=-1"], [w, "--seed=+1"], [w, "--seed= 1"], [w, "--seed=1e3"],
        [w, "--seed=18446744073709551616"], [w, "--trace="],
    ]
    script_cases = [
        ["--workload", "nope"], ["--workload", workload, "--seed", "-3"],
        ["--workload", workload, "--seed", "x"],
        ["--workload", workload, "--seconds", "0"],
        ["--workload", workload, "--trace", "2"],
    ]
    failures = 0
    for prog, cases in (([str(runner_path())], runner_cases),
                        ([sys.executable, __file__], script_cases)):
        for case in cases:
            p = subprocess.run(prog + case, capture_output=True, text=True,
                               timeout=60)
            ok = (p.returncode == 2 and "usage:" in p.stderr
                  and p.stdout == "")
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} exit {p.returncode}: "
                  f"{Path(prog[-1]).name} {' '.join(case)}")
    print(f"selftest: {failures} failure(s)")
    return 1 if failures else 0


# --- --repro ---------------------------------------------------------------

def spread(values):
    """Interquartile range over the median, as the acceptance check takes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def repro(args, spec):
    build()
    sets = []
    for set_index in range(2):
        runs = {}
        for w in spec["workloads"]:
            name = w["name"]
            runs[name] = []
            for r in range(REPRO_RUNS):
                seed = 1 + set_index * REPRO_RUNS + r
                out = run_runner(name, seed, args.seconds, trace=False)
                if not out["correct"]:
                    raise BenchError(f"{name} seed {seed}: failed cells")
                runs[name].append(out)
                print(f"set {set_index + 1} {name} seed {seed} "
                      f"({out['provenance']['wall_s']:.1f} s): " + ", ".join(
                    f"{m} {s['median']:.6g}"
                    for m, s in out["end_to_end"].items()), flush=True)
        sets.append(runs)

    # A pair agrees when the second median is not worse than the first by
    # more than the bound and, except for setup_s, both spreads are within
    # it.  It is steady when every spread is within a third of the bound.
    ok = True
    report = {}
    print(f"\n{'workload':16s} {'metric':18s} {'median 1':>14s} "
          f"{'median 2':>14s} {'worse':>8s} {'spread 1':>9s} "
          f"{'spread 2':>9s} {'bound':>6s}")
    for w in spec["workloads"]:
        name = w["name"]
        walls = [o["provenance"]["wall_s"] for s in sets for o in s[name]]
        report[name] = {"run_wall_s": {"median": statistics.median(walls),
                                       "max": max(walls)}}
        for m in spec["end_to_end"]:
            per_set = [[o["end_to_end"][m["name"]]["median"] for o in s[name]]
                       for s in sets]
            med = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            worse = worse_by(med[0], med[1], m["better"])
            agree = worse <= m["bound"] and (
                m["name"] == "setup_s"
                or max(spreads) <= m["bound"])
            steady = max(spreads) <= m["bound"] / 3
            ok = ok and agree
            report[name][m["name"]] = {
                "median_1": med[0], "median_2": med[1], "worse": worse,
                "spread_1": spreads[0], "spread_2": spreads[1],
                "bound": m["bound"], "agree": agree, "steady": steady}
            print(f"{name:16s} {m['name']:18s} {med[0]:14.6g} {med[1]:14.6g} "
                  f"{worse:+8.2%} {spreads[0]:9.2%} {spreads[1]:9.2%} "
                  f"{m['bound']:6.0%} {'ok' if agree else 'DISAGREE'}"
                  f"{'' if steady else ' unsteady'}")
        print(f"{name:16s} run wall time: median "
              f"{report[name]['run_wall_s']['median']:.1f} s, max "
              f"{report[name]['run_wall_s']['max']:.1f} s")

    if args.write_baseline:
        write_baseline(spec, args, sets[0], report)
    return 0 if ok else 1


def write_baseline(spec, args, first_set, report):
    outs = [o for runs in first_set.values() for o in runs]
    if any(o["provenance"]["build_type"] != "Release" for o in outs):
        raise BenchError("refusing to write a baseline from a non-Release "
                         "build")
    prov = dict(outs[0]["provenance"])
    for key in ("seed", "inputs", "passes", "traced_passes", "trace_file",
                "wall_s"):
        prov.pop(key)
    baseline = {"provenance": prov, "runs": REPRO_RUNS,
                "seeds": sorted({o["provenance"]["seed"] for o in outs}),
                "traced_seed": 1, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        traced = run_runner(name, 1, args.seconds, trace=True)
        e2e = {}
        for m in spec["end_to_end"]:
            values = [o["end_to_end"][m["name"]]["median"]
                      for o in first_set[name]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            e2e[m["name"]] = {"median": median, "q1": q1, "q3": q3,
                              "n": len(values), "unit": m["unit"]}
        baseline["workloads"][name] = {
            "end_to_end": e2e,
            "per_layer": {m["name"]: traced["per_layer"][m["name"]]["median"]
                          for m in spec["per_layer"]},
            "traced_passes": traced["provenance"]["traced_passes"],
            "repro": report[name],
        }
    with open(BASELINE_PATH, "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")
    print(f"wrote {BASELINE_PATH}")


def main():
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]

    def count(minimum):
        def parse(s):
            if not s.isdigit() or int(s) < minimum:
                raise argparse.ArgumentTypeError(
                    f"want an integer >= {minimum}")
            return int(s)
        return parse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads)
    ap.add_argument("--seed", type=count(0), default=0)
    ap.add_argument("--seconds", type=count(1), default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--repro", action="store_true")
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()
    if sum([args.selftest, args.repro, args.workload is not None]) != 1:
        ap.error("give exactly one of --workload, --selftest, --repro")
    try:
        if args.selftest:
            return selftest(spec)
        if args.repro:
            return repro(args, spec)
        return run_one(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
