#!/usr/bin/env python3
"""Steadiness check: one benchmark run per seed, spread per metric.

    python3 perfbench/steadiness.py --workloads serve_planner,churn \\
        --seeds 1-10 [--seconds 10] [--out .bench_out/steadiness.json]

Run from the repository root. For every workload it runs perfbench/run.py
once per seed (untraced), then prints, per end-to-end metric, the median
and the spread (Q3 - Q1) / median of the values — quartiles as
statistics.quantiles(values, n=4) gives them — next to the metric's
bound in BENCHMARK.json. The same is printed for the drift sources each
run records (planner cost models and route shares, rebuild and swap
counts, page-cache hit rate), so an unsteady qps can be traced to its
cause. The raw values go to --out as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    if len(values) < 2:
        return 0.0, values[0] if values else 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return ((q3 - q1) / median if median else 0.0), median


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", default=".bench_out/steadiness.json")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print("%s seed %d: exit %d" % (workload, seed, proc.returncode))
                return 1
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["perfbench"]
            runs.append({"seed": seed,
                         "metrics": {k: v["value"]
                                     for k, v in result["metrics"].items()},
                         "drift": detail.get("drift", {}),
                         "correct": result["correct"]})
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % kv for kv in runs[-1]["metrics"].items())),
                flush=True)
        print("\n%s (%d runs, %gs each)" % (workload, len(runs), seconds))
        print("  %-40s %14s %8s %7s" % ("metric", "median", "spread", "bound"))
        summary = {}
        for source in ("metrics", "drift"):
            names = sorted({k for r in runs for k in r[source]})
            for name in names:
                values = [r[source][name] for r in runs if name in r[source]]
                s, median = spread(values)
                bound = bounds.get(name) if source == "metrics" else None
                summary[name] = {"median": median, "spread": s,
                                 "bound": bound, "values": values}
                print("  %-40s %14.6g %7.2f%% %7s%s" % (
                    name if source == "metrics" else "drift." + name, median,
                    100 * s, "" if bound is None else "%.0f%%" % (100 * bound),
                    "  OVER BOUND/3" if bound and s > bound / 3 else ""))
        report[workload] = {"seconds": seconds, "runs": runs,
                            "summary": summary}
        print()
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
