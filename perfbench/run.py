#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload serve_planner --seed 1 --seconds 10 --trace 0

Run from the repository root. The harness is configured with CMake into
$CARGO_TARGET_DIR (default .bench_build) and built from perfbench/ plus
the library sources in src/. Snapshots, spills and span files go to
.bench_out/. All of the harness's stdout is passed through; its last line
is the result object. Before printing it, this script checks that the
result names every metric BENCHMARK.json lists for the run's mode, with
the same unit, and exits non-zero without a result otherwise.

--scale F (default 1.0) shrinks the datasets; only the self-test uses it.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_planner", "serve_paged", "churn")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_sha256():
    """Content hash of the library and benchmark sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".h", ".cc", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def build(build_dir):
    """Configures and builds the harness; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: library sources (src/) not found next to perfbench/")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "gsr_perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("error: build step failed: " + " ".join(step))
            return None
    binary = os.path.join(build_dir, "gsr_perfbench")
    return binary if os.path.isfile(binary) else None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    try:
        want = expected_metrics(args.trace)
    except (OSError, ValueError, KeyError) as e:
        log("error: cannot read BENCHMARK.json: %s" % e)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 3
    out_dir = os.path.abspath(os.path.join(".bench_out", "%s-seed%d-%s" % (
        args.workload, args.seed, "trace" if args.trace else "e2e")))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale), "--out", out_dir,
           "--commit", commit(), "--source-sha", source_sha256()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("error: harness exited with %d" % proc.returncode)
        return proc.returncode or 4
    try:
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError) as e:
        log("error: unreadable harness result: %s" % e)
        return 4
    if got != want:
        log("error: metrics differ from BENCHMARK.json: missing %s, extra %s, "
            "unit mismatch %s" % (
                sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                sorted(k for k in want if k in got and got[k] != want[k])))
        return 5
    print("\n".join(lines), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
