#!/usr/bin/env python3
"""Runs one servebench workload and prints its result as one JSON line.

    python3 servebench/run.py --workload lookup --seed 1 --seconds 10 --trace 0

Builds the benchmark from the checkout on first use (Release, into
.bench_build/servebench), runs the binary, echoes its report, and prints
as the last line of stdout a JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end list of BENCHMARK.json, with --trace 1 the per_layer list.
Exits non-zero, without a result, when the build or the run fails or a
listed metric is missing.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
BINARY = os.path.join(BUILD, "servebench")
WORKLOADS = ("lookup", "provision", "ddu")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(target="servebench"):
    """Configures (once) and builds `target`; False on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                           "--target", target],
                          stdout=sys.stderr).returncode == 0


def source_revision():
    """The git commit, or a digest of the sources outside git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    digest = hashlib.sha1()
    for top in ("src", "servebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def parse_report(text):
    """Splits servebench output into (metrics, duplicates, result, records).

    metrics maps name -> (value, or None for n/a; unit). duplicates lists
    every name printed more than once."""
    metrics, duplicates, records, result = {}, [], {}, None
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "metric" and len(parts) >= 4:
            name, value, unit = parts[1], parts[2], parts[3]
            if name in metrics:
                duplicates.append(name)
            metrics[name] = (None if value == "n/a" else float(value), unit)
        elif parts[0] == "record":
            for item in parts[1:]:
                key, _, value = item.partition("=")
                records[key] = value
        elif parts[0] == "result":
            result = dict(item.partition("=")[::2] for item in parts[1:])
    return metrics, duplicates, result, records


def run_binary(workload, seed, seconds, trace, extra=()):
    """Runs servebench; returns its stdout or None on failure."""
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--window-ms=%d" % int(round(seconds * 1000)),
           "--trace=%d" % trace, "--commit=" + source_revision(),
           "--data-root=" + os.path.join(BUILD, "data")]
    if trace:
        cmd.append("--span-file=" + os.path.join(
            BUILD, "spans-%s.tsv" % workload))
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("servebench: run timed out")
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log("servebench exited with %d" % proc.returncode)
        return None
    return proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        log("cannot read BENCHMARK.json: %s" % error)
        return 1
    if not build():
        log("servebench build failed")
        return 1
    output = run_binary(args.workload, args.seed, args.seconds, args.trace)
    if output is None:
        return 1
    sys.stdout.write(output)
    metrics, duplicates, result, _ = parse_report(output)
    if result is None or duplicates:
        log("malformed report (duplicates: %s)" % duplicates)
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    selected = {}
    for item in wanted:
        name = item["name"]
        value, unit = metrics.get(name, (None, None))
        if value is None or unit != item["unit"]:
            log("metric %s missing, n/a or not in %s" % (name, item["unit"]))
            return 1
        selected[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": result.get("correct") == "1",
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": selected,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
