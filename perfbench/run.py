#!/usr/bin/env python3
"""End-to-end benchmark of the Bernoulli sparse compiler.

Builds the benchmark driver (perfbench/CMakeLists.txt, which compiles the
library from src/) and runs one workload:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (spans are written to
<build dir>/traces). Other modes:

  python3 perfbench/run.py --selftest
      the benchmark's own checks: the oracle counts corrupted outputs as
      failures and the calibration guard flags overlapping samples.
  python3 perfbench/run.py --steadiness <N> [--workload <name> ...]
      runs each workload (by default those BENCHMARK.json lists) N times
      with seeds first-seed .. first-seed+N-1 (--sets 2 repeats that) and
      prints median, quartiles and spread of every end-to-end metric
      against its bound in BENCHMARK.json.

The driver also runs serve_zipf, which BENCHMARK.json does not list: its
miss-path tail doubles while other tenants load the host (see
perfbench/benchmark_notes.json).

The build directory is $CARGO_TARGET_DIR if set, else .bench_build, both
relative to the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d)


def build():
    """Configures and builds the driver; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               timeout=BUILD_TIMEOUT_S, text=True)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            return None
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log(f"perfbench: build step {' '.join(cmd[:2])} failed")
            return None
    return os.path.join(out, "perfbench_driver")


def run_driver(driver, args, echo=True):
    """Runs the driver; returns (exit code, parsed result or None)."""
    try:
        r = subprocess.run([driver] + args, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1, None
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        if echo and lines:
            print("\n".join(lines))
        return r.returncode or 1, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: the driver's last line is not JSON")
        return 1, None
    if echo:
        print("\n".join(lines))
    return 0, result


def measure_args(workload, seed, seconds, trace):
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    return ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out-dir", traces]


def steadiness(driver, spec, workloads, runs, sets, first_seed, seconds):
    """Prints, per workload and metric, the quartiles and spread of `runs`
    runs, for `sets` sets, and the drift of each set's median from the
    first's. Returns 0 when every spread is within its bound."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worst = 0
    for w in workloads:
        medians = []
        for s in range(sets):
            values = {}
            for i in range(runs):
                seed = first_seed + s * runs + i
                code, result = run_driver(driver, measure_args(w, seed, seconds, 0),
                                          echo=False)
                if code != 0 or not result["correct"]:
                    log(f"{w} seed {seed}: run failed ({code})")
                    return 1
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                log(f"{w} set {s + 1} run {i + 1}/{runs} seed {seed} done")
            print(f"\n{w}, set {s + 1}: {runs} runs of {seconds} s")
            print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
                  f"{'spread':>8} {'bound':>6} {'max/min':>8}")
            set_medians = {}
            for name, v in sorted(values.items()):
                q1, q2, q3 = statistics.quantiles(v, n=4)
                med = statistics.median(v)
                spread = (q3 - q1) / med
                bound = bounds[name]["bound"]
                flag = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "OVER")
                if name != "setup_s" and spread > bound:
                    worst = 1
                set_medians[name] = med
                print(f"  {name:<18} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:8.4f} {bound:6.3f} {max(v) / min(v):8.4f} {flag}")
            medians.append(set_medians)
        for s in range(1, sets):
            print(f"  set {s + 1} vs set 1 (worse by, share of median):")
            for name, med in sorted(medians[s].items()):
                base = medians[0][name]
                lower = bounds[name]["better"] == "lower"
                worse = (med - base) / base if lower else (base - med) / base
                ok = worse <= bounds[name]["bound"]
                if not ok:
                    worst = 1
                print(f"    {name:<18} {worse:+8.4f} {'ok' if ok else 'OVER'}")
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--steadiness", type=int, metavar="N")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=101)
    a = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        log(f"perfbench: cannot read {spec_path}: {e}")
        return 1
    names = [w["name"] for w in spec["workloads"]]
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]

    driver = build()
    if driver is None:
        return 1
    if a.selftest:
        return subprocess.run([driver, "--selftest"], timeout=RUN_TIMEOUT_S).returncode
    if a.steadiness:
        return steadiness(driver, spec, a.workload or names, a.steadiness, a.sets,
                          a.first_seed, seconds)
    # The driver also knows workloads BENCHMARK.json does not gate
    # (serve_zipf); it rejects unknown names itself.
    if not a.workload or len(a.workload) != 1:
        log(f"perfbench: give one --workload, e.g. one of {', '.join(names)}")
        return 2
    code, result = run_driver(driver, measure_args(a.workload[0], a.seed, seconds,
                                                   a.trace))
    return code if result is not None else (code or 1)


if __name__ == "__main__":
    sys.exit(main())
