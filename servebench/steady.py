#!/usr/bin/env python3
"""Runs one servebench workload N times and reports how steady it is.

    python3 servebench/steady.py --workload provision --runs 10
    python3 servebench/steady.py --workload lookup --runs 5 --first-seed 11

Each run goes through run.py (the benchmark's entry point) with its own
seed. For every metric the tool prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, min/max, and the spread:
(q3 - q1) / median. End-to-end metrics also show their bound from
BENCHMARK.json and whether the spread is under a third of it. The
per-run host steal and CPU busy shares are printed so a host-noisy run
is visible next to its numbers. --json writes every run's figures.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as runner  # noqa: E402  (sibling module)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run with seed %d failed" % seed)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    _, _, _, records = runner.parse_report(proc.stdout)
    return result, records


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, min(values), max(values), spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=runner.WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="window length (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every run's figures here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        began = time.monotonic()
        result, records = one_run(args.workload, seed, seconds, args.trace)
        wall = time.monotonic() - began
        runs.append({"seed": seed, "result": result, "records": records,
                     "wall_s": wall})
        print("run %2d seed %3d correct=%s failed=%d steal=%s busy=%s "
              "wall=%.1fs" % (
                  i + 1, seed, result["correct"], result["failed"],
                  records.get("steal_share", "?"),
                  records.get("busy_share", "?"), wall), flush=True)

    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    if len(runs) < 2:
        return 0
    print("\n%-40s %12s %12s %12s %12s %12s %8s %6s" % (
        "metric", "median", "q1", "q3", "min", "max", "spread", "bound"))
    steady = True
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        unit = runs[0]["result"]["metrics"][name]["unit"]
        median, q1, q3, lo, hi, spread = summarize(values)
        bound = bounds.get(name)
        mark = ""
        if bound is not None:
            ok = spread < bound / 3 or name == "setup_s" and spread < bound
            steady = steady and ok
            mark = "%.2f%s" % (bound, "" if ok else " !")
        print("%-40s %12.5g %12.5g %12.5g %12.5g %12.5g %8.4f %6s  %s" % (
            name, median, q1, q3, lo, hi, spread, mark, unit))
    steal = [float(r["records"].get("steal_share", 0)) for r in runs]
    print("\nsteal share per run: " + " ".join("%.3f" % s for s in steal))
    print("all correct: %s" % all(r["result"]["correct"] for r in runs))
    if bounds and args.trace == 0:
        print("every spread under a third of its bound: %s" % steady)
    return 0


if __name__ == "__main__":
    sys.exit(main())
