#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-scale pass of every workload.

    python3 perfbench/selftest.py

Run from the repository root. For each workload it runs perfbench/run.py
at --scale 0.05 for one second, untraced and traced, and checks that

  - the run exits 0 and its last line is a result with correct == true,
    failed == 0 and fail_rate == 0 in the detail record;
  - the untraced run reports every end-to-end metric of BENCHMARK.json,
    with its unit and a value above zero;
  - the traced run reports every per-layer metric of BENCHMARK.json, and
    none of the workload's own layer metrics (LAYER_METRICS below) is
    idle.

Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

_SETUP = ["graph.condense_s", "core.build_s"]
_SNAPSHOT = ["snapshot.save_s", "snapshot.load_s"]
_TRACE = ["trace.unattributed_share", "trace.overhead"]
_MEMBERS = ["SpaReach-BFL", "SocReach", "3DReach"]

# The per-layer metrics each workload measures itself (the "on" column
# of the benchmark notes); every other per-layer metric may be idle.
LAYER_METRICS = {
    "serve_planner": _SETUP + _SNAPSHOT + _TRACE + [
        "exec.scheduler.queries_per_group", "exec.scheduler.dedup_ratio",
        "exec.scheduler.group_build_us", "core.planner.settled_share",
        "labeling.observations.settle_ns", "spatial.histogram.empty_ns",
        "core.planner.route_ns", "core.sink.finalize_ns",
        "core.three_d_reach.range_queries_per_query",
    ] + ["core.planner.%s.%s" % (kind, m) for m in _MEMBERS for kind in (
        "routed_share", "member_ns", "cost_base_ns", "cost_per_unit_ns")],
    "serve_paged": _SETUP + _SNAPSHOT + _TRACE + [
        "core.three_d_reach.range_queries_per_query",
        "snapshot.page_cache.hit_rate",
        "snapshot.page_cache.touches_per_query",
        "snapshot.page_cache.misses_per_query",
        "snapshot.page_cache.evictions_per_query",
        "snapshot.page_cache.bypass_per_query",
        "snapshot.page_cache.pin_unpin_ns",
        "snapshot.page_cache.pin_unpin_ns_contended",
        "core.three_d_reach.paged_eval_ns", "core.three_d_reach.mmap_eval_ns",
        "snapshot.paged_over_mmap",
    ],
    "churn": _SETUP + _TRACE + [
        "exec.epoch.pin_ns", "exec.epoch.alive_max", "exec.streaming.rebuilds",
        "exec.streaming.snapshot_swaps", "exec.streaming.rebuild_failures",
        "exec.streaming.update_ups", "exec.streaming.update_p50_us",
        "exec.streaming.update_p99_us", "exec.streaming.drained_qps",
        "core.dynamic.delta_entries_mean", "core.dynamic.risky_share",
        "core.dynamic.base_build_s", "core.dynamic.snapshot_roundtrip_s",
        "core.dynamic.delta_after_flush", "core.dynamic.view_eval_ns",
        "core.dynamic.base_eval_ns",
    ],
}


def fail(msg):
    print("FAIL: " + msg, flush=True)
    sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", "0.05"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail("%s trace=%d exited %d" % (workload, trace, proc.returncode))
    detail = json.loads(lines[-2])["perfbench"]
    return json.loads(lines[-1]), detail


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(LAYER_METRICS):
        fail("workloads %s differ from the self-test's %s" % (
            names, sorted(LAYER_METRICS)))
    for workload in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, detail = run(workload, trace)
            where = "%s trace=%d" % (workload, trace)
            if not result["correct"] or result["failed"] != 0:
                fail("%s: %d of %d operations wrong" % (
                    where, result["failed"], result["attempted"]))
            if result["attempted"] < 1 or detail["fail_rate"] != 0:
                fail("%s: fail_rate %s" % (where, detail["fail_rate"]))
            metrics = result["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    fail("%s: %s missing or not in %s" % (
                        where, m["name"], m["unit"]))
                if trace == 0 and not got["value"] > 0:
                    fail("%s: %s is %s" % (where, m["name"], got["value"]))
            if trace == 1:
                idle = set(detail["idle_metrics"].split())
                busy = [m for m in LAYER_METRICS[workload] if m in idle]
                if busy:
                    fail("%s: own layer metrics idle: %s" % (where, busy))
            print("ok   %-14s trace=%d  %d metrics, %d operations checked" % (
                workload, trace, len(metrics), result["attempted"]),
                flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
