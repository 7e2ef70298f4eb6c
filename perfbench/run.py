#!/usr/bin/env python3
"""Build and run the repository benchmark, or report its steadiness.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gps-bare --seed 1 --seconds 10 --trace 0

builds perfbench/ into .bench_build/ (with the Go build cache there
too) and runs it with the given arguments; the last line of output is
the JSON result. With --report instead of --workload it runs every
named workload repeatedly and prints, per end-to-end metric, the
median, quartiles and min/max of each of two sets of runs and whether
the sets agree within the bounds in BENCHMARK.json:

    python3 perfbench/run.py --report gps-bare,fusion-live --runs 10 --seconds 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BUILD = ".bench_build"


def build():
    """Compile the benchmark; returns the binary path or exits non-zero."""
    root = os.getcwd()
    out = os.path.join(root, BUILD)
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    bench_dir = os.path.join(root, "perfbench")
    try:
        proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env)
    except OSError as err:
        sys.exit(f"perfbench: cannot run go: {err}")
    if proc.returncode != 0:
        sys.exit(proc.returncode or 1)
    return binary


def run_once(binary, workload, seed, seconds, trace):
    """Runs the benchmark once and returns its parsed result line."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} seed {seed} failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values), "max": max(values), "spread": (q3 - q1) / q2 if q2 else 0.0}


def report(binary, workloads, runs, seconds):
    """Two sets of runs per workload; prints spreads and set agreement.

    The raw values are kept in .bench_build/report-<workload>.json.
    """
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload in workloads:
        raw = []
        for s in range(2):
            values = {}
            for i in range(runs):
                seed = 1 + s * runs + i
                res = run_once(binary, workload, seed, seconds, 0)
                if not res["correct"]:
                    sys.exit(f"perfbench: {workload} seed {seed}: output check failed")
                for name, m in res["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            raw.append(values)
        with open(os.path.join(BUILD, f"report-{workload}.json"), "w") as f:
            json.dump(raw, f)
        ok = print_report(workload, raw, bounds, seconds) and ok
    return ok


def print_report(workload, raw, bounds, seconds):
    """Prints both sets' summaries per metric; returns whether they pass.

    A metric passes when the spread of all runs together is at most a
    third of its bound and the second set's median is no worse than the
    first's by more than the bound.
    """
    ok = True
    print(f"== {workload} ({len(raw[0]['setup_s'])} runs per set, {seconds}s each)")
    print(f"{'metric':22} {'bound':>5} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} {'spread':>7}")
    for name in sorted(raw[0]):
        b = bounds[name]
        bound = b["bound"]
        sums = [summary(values[name]) for values in raw]
        both = summary(raw[0][name] + raw[1][name])
        for i, st in [("1", sums[0]), ("2", sums[1]), ("all", both)]:
            print(f"{name:22} {bound:5.2f} {i:>3} {st['median']:12.4f} {st['q1']:12.4f} {st['q3']:12.4f} {st['min']:12.4f} {st['max']:12.4f} {st['spread']:7.3f}")
        m1, m2 = sums[0]["median"], sums[1]["median"]
        worse = (m2 - m1) / m1 if b["better"] == "lower" else (m1 - m2) / m1
        within = both["spread"] <= bound
        steady = both["spread"] <= bound / 3
        agree = worse <= bound
        ok = ok and steady and agree
        flag = "" if steady and agree else "   <-- FAIL"
        print(f"{'':22} set 2 worse by {worse:+.3f}; medians agree: {agree}; spread within the bound: {within}, under a third of it: {steady}{flag}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--report", help="comma-separated workloads to repeat and summarise")
    ap.add_argument("--runs", type=int, default=10, help="runs per set in --report mode")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    binary = build()
    if args.report:
        sys.exit(0 if report(binary, args.report.split(","), args.runs, args.seconds) else 1)
    if not args.workload:
        sys.exit("perfbench: need --workload or --report")
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    )
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
