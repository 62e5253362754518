#!/usr/bin/env python3
"""servebench's own tests.

    python3 servebench/selftest.py

1. Builds and runs servebench_test (histogram percentiles, span
   self-time arithmetic).
2. Smoke-runs every workload untraced and traced on a tiny population
   and a short window, and asserts that every metric name appears
   exactly once with its unit, that the metrics a workload exercises
   are numbers, that the BENCHMARK.json metrics are numbers on every
   workload, that per-class layer self times sum to the client-observed
   mean, and that the replies and the end-state audit passed.
Exits non-zero on the first failing check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as runner  # noqa: E402  (sibling module)

SMOKE_FLAGS = ["--population=200"]
SMOKE_SECONDS = 1.0

# name -> (unit, workloads on which it must be a number)
ALL = ("lookup", "provision", "ddu")
WIRE = ("lookup", "provision")
END_TO_END = {
    "setup_s": ("s", ALL),
    "ops_s": ("ops/s", ALL),
    "op_p50_us": ("us", ALL),
    "op_p90_us": ("us", ALL),
    "search_p50_us": ("us", ("lookup",)),
    "search_p90_us": ("us", ("lookup",)),
    "write_p50_us": ("us", WIRE),
    "write_p90_us": ("us", WIRE),
    "ddu_p50_us": ("us", ("ddu",)),
    "ddu_p90_us": ("us", ("ddu",)),
    "cpu_us_per_op": ("us", ALL),
    "rss_mb": ("MiB", ALL),
    "failed_share": ("ratio", ALL),
}
PER_LAYER = {
    "net.self_us": ("us", WIRE),
    "net.bytes_per_request": ("B", WIRE),
    "net.shed_busy": ("count", ALL),
    "ldap.handler_self_us": ("us", WIRE),
    "ldap.search_point_us": ("us", ("lookup",)),
    "ldap.search_browse_us": ("us", ("lookup",)),
    "ldap.candidates_per_search": ("count", ALL),
    "ldap.candidate_hit_ratio": ("ratio", ("lookup",)),
    "ldap.scan_plans": ("count", ALL),
    "ldap.commits_per_update": ("count", ALL),
    "ltap.add_us": ("us", ("provision",)),
    "ltap.modify_us": ("us", WIRE),
    "ltap.delete_us": ("us", ("provision",)),
    "ltap.triggers_per_update": ("count", WIRE),
    "core.queue_wait_us": ("us", ALL),
    "core.max_queue_depth": ("count", ALL),
    "core.batch_size": ("count", ALL),
    "core.coalesced_share": ("ratio", ALL),
    "core.device_applies_per_update": ("count", ALL),
    "core.reapplies_per_ddu": ("count", ("ddu",)),
    "core.backfills_per_add": ("count", ("provision",)),
    "core.lock_retries": ("count", ALL),
    "core.errors": ("count", ALL),
    "core.converge_us": ("us", ("ddu",)),
    "lexpress.plan_us": ("us", ALL),
    "lexpress.closure_iterations_per_update": ("count", ALL),
    "devices.terminal_us": ("us", ("ddu",)),
    "devices.commands_per_update": ("count", ALL),
    "devices.round_trips_per_update": ("count", ALL),
    "storage.wal_records_per_update": ("count", ALL),
    "storage.wal_bytes_per_update": ("B", ALL),
    "storage.checkpoints": ("count", ALL),
    "storage.space_per_live_byte": ("ratio", ALL),
    "proc.ctx_switches_per_op": ("count", ALL),
    "setup.create_s": ("s", ALL),
    "setup.provision_s": ("s", ALL),
    "setup.serve_s": ("s", ALL),
    "host.steal_share": ("ratio", ALL),
    "search_p99_us": ("us", ("lookup",)),
    "write_p99_us": ("us", WIRE),
    "ddu_p99_us": ("us", ("ddu",)),
    "trace.client_us": ("us", ALL),
    "trace.overhead_share": ("ratio", ALL),
    "net.self_share": ("ratio", ALL),
    "ldap.handler_self_share": ("ratio", ALL),
    "ltap.op_share": ("ratio", ALL),
    "devices.terminal_share": ("ratio", ALL),
    "core.converge_share": ("ratio", ALL),
}
LAYER_SHARES = ("net.self_share", "ldap.handler_self_share", "ltap.op_share",
                "devices.terminal_share", "core.converge_share")


def fail(message):
    raise SystemExit("selftest FAILED: " + message)


def check_report(workload, trace, output, spec):
    metrics, duplicates, result, records = runner.parse_report(output)
    tag = "%s trace=%d" % (workload, trace)
    if duplicates:
        fail("%s: metric printed twice: %s" % (tag, duplicates))
    if result is None or result.get("correct") != "1":
        fail("%s: run not correct: %s" % (tag, result))
    if int(result["failed"]) != 0 or int(result["attempted"]) < 1:
        fail("%s: attempted/failed %s" % (tag, result))
    for key in ("build_type", "lockdep", "commit", "nproc", "storage",
                "wal_fsync", "population", "seed", "clients",
                "device_rtt_us", "window_s", "steal_share", "busy_share"):
        if key not in records:
            fail("%s: run record lacks %s" % (tag, key))
    expected = PER_LAYER if trace else END_TO_END
    for name, (unit, exercised) in expected.items():
        if name not in metrics:
            fail("%s: metric %s missing" % (tag, name))
        value, printed_unit = metrics[name]
        if printed_unit != unit:
            fail("%s: %s in %s, expected %s" % (tag, name, printed_unit, unit))
        if workload in exercised and value is None:
            fail("%s: %s is n/a" % (tag, name))
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    for item in listed:
        value, unit = metrics.get(item["name"], (None, None))
        if value is None or unit != item["unit"]:
            fail("%s: BENCHMARK.json metric %s not a number in %s" % (
                tag, item["name"], item["unit"]))
    if trace:
        classes = {name.split(".")[1] for name in metrics
                   if name.startswith("trace.") and name.count(".") >= 2}
        for cls in classes:
            client = metrics["trace.%s.client_mean_us" % cls][0]
            total = metrics["trace.%s.self_sum_mean_us" % cls][0]
            if abs(client - total) > 1e-6 * max(1.0, client):
                fail("%s: %s self times sum to %s, client mean %s" % (
                    tag, cls, total, client))
        shares = sum(metrics[n][0] for n in LAYER_SHARES)
        if abs(shares - 1.0) > 1e-3:
            fail("%s: layer shares sum to %s" % (tag, shares))
    print("ok  %-10s trace=%d  attempted=%s" % (
        workload, trace, result["attempted"]), flush=True)


def main():
    with open(os.path.join(runner.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not runner.build("servebench") or not runner.build("servebench_test"):
        fail("build")
    test = subprocess.run([os.path.join(runner.BUILD, "servebench_test")])
    if test.returncode != 0:
        fail("servebench_test")
    for workload in runner.WORKLOADS:
        for trace in (0, 1):
            output = runner.run_binary(workload, 7, SMOKE_SECONDS, trace,
                                       SMOKE_FLAGS)
            if output is None:
                fail("%s trace=%d did not run" % (workload, trace))
            check_report(workload, trace, output, spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
