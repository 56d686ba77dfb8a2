#!/usr/bin/env python3
"""Build and run the FLStore benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and with it the library under src/) with CMake into
$CARGO_TARGET_DIR, or .bench_build at the repository root when that is unset,
then runs one workload. The benchmark's own lines go to standard output; its
last line is the JSON result. The result's metric names and units are checked
against BENCHMARK.json. Exits non-zero, without a result, when the build, the
run or that check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_fit", "paper_limited", "tenant_plane", "hot_mixed")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configure, then build the benchmark program (quick when up to date)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        # Build output goes to stderr: stdout carries only the benchmark.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(out_dir, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode}")

    result = json.loads(lines[-1])
    measured = {name: m["unit"] for name, m in result["metrics"].items()}
    if measured != declared_metrics(args.trace):
        sys.stderr.write(proc.stdout)
        fail("metrics differ from BENCHMARK.json")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
