#!/usr/bin/env python3
"""Steadiness check for the benchmark: runs sets of seeded runs of one
commit and reports, per workload and end-to-end metric, the median, the
quartiles, the spread (interquartile distance over the median) and whether
the sets agree within the bounds in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --runs 5 --sets 1 --workloads serve-read

Seeds run from 1 to --runs; every set uses the same seeds and
BENCHMARK.json's run_seconds. A metric passes when, in every set, its
spread is within its bound, and when each later set's median differs
from the first set's, in either direction, by at most the bound. The
verdict for setting bounds is stricter: a spread under a third of the
bound. Every run must also report correct=true and failed=0.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: {lines[-1][:200]}")
    return result, wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set, one seed each")
    parser.add_argument("--sets", type=int, default=2, help="sets of runs (same seeds)")
    parser.add_argument("--workloads", nargs="*", help="default: every workload")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    workloads = opts.workloads or [w["name"] for w in bench["workloads"]]
    verdict_ok = True
    for workload in workloads:
        sets = []
        walls = []
        for s in range(opts.sets):
            values = {m["name"]: [] for m in metrics}
            for r in range(opts.runs):
                seed = 1 + r
                result, wall = run_once(bench["command"], workload, seed, seconds)
                walls.append(wall)
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"  {workload} set {s} seed {seed}: {wall:.1f}s", file=sys.stderr)
            sets.append(values)
        print(f"\n{workload}: {opts.sets} x {opts.runs} runs, "
              f"wall per run median {statistics.median(walls):.1f}s max {max(walls):.1f}s")
        print(f"  {'metric':<14} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6} {'vs set 0':>9}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first_median = None
            for s, values in enumerate(sets):
                q1, q2, q3, spread = summarize(values[name])
                first_median = q2 if first_median is None else first_median
                drift = (q2 - first_median) / first_median
                ok = spread <= bound and abs(drift) <= bound
                steady = spread < bound / 3
                verdict = ("ok" if ok else "FAIL") + ("" if steady else " (spread over bound/3)")
                verdict_ok &= ok
                print(f"  {name:<14} {s:>3} {q1:>12.4f} {q2:>12.4f} {q3:>12.4f} "
                      f"{spread:>7.3f} {bound:>6.2f} {drift:>+9.3f}  {verdict}")
    print("\nall metrics within bounds" if verdict_ok else "\nSOME METRICS OUT OF BOUNDS")
    return 0 if verdict_ok else 1


if __name__ == "__main__":
    sys.exit(main())
