#!/usr/bin/env python3
"""Builds the EcoDB benchmark from source and runs one workload.

Usage (from the repository root):
    python3 ecobench/run.py --workload serve_tpch --seed 1 --seconds 30 --trace 0
    python3 ecobench/run.py --self-test

The engine is built from the src/ tree beside this directory into
.bench_build/ecobench (Release). Build output goes to stderr; stdout carries
the harness report, whose last line is the JSON result. A traced run writes
its spans to .bench_build/ecobench/traces/. The script checks that the
metric names in that result are exactly the ones BENCHMARK.json declares.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ecobench")


def host_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(targets):
    """Configures once, then builds `targets`; returns False on failure."""
    jobs = str(min(4, host_cores()))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the harness's own tests")
    args = parser.parse_args()

    if args.self_test:
        if not build(["ecobench_test"]):
            return 1
        return subprocess.run([os.path.join(BUILD, "ecobench_test")]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if not build(["ecobench"]):
        print("ecobench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD, "ecobench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if result is None:
        sys.stderr.write(proc.stdout)
        print("ecobench: no result line (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    if list(result["metrics"]) != declared_metrics(args.trace):
        sys.stderr.write(proc.stdout)
        print("ecobench: metric names differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
