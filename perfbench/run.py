#!/usr/bin/env python3
"""Builds and runs the open-loop serving benchmark.

    python3 perfbench/run.py --workload <flat-read|router-tcp>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The library and the benchmark are built
from source into .bench_build/perfbench (CMake, Release); the harness
self-tests run after every build and a failing self-test stops the run.
The benchmark's output is passed through; its last line is the JSON
result. Spans of a traced run go to .bench_build/spans/. Exits non-zero
without a result when the build, the self-tests or any correctness
check fails.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS = os.path.join(ROOT, ".bench_build", "spans")
WORKLOADS = ("flat-read", "router-tcp")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; returns success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"{cmd[0]}: {e}", file=sys.stderr)
        return False


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    return (run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                       "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                      BUILD_TIMEOUT_S) and
            run_quiet(["cmake", "--build", BUILD, "-j", jobs],
                      BUILD_TIMEOUT_S) and
            run_quiet([os.path.join(BUILD, "perfbench_selftest")], 60))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not build():
        print("build or harness self-tests failed", file=sys.stderr)
        return 1
    os.makedirs(SPANS, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--span-dir", SPANS]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        # Show what happened, but print no result line.
        sys.stderr.write(proc.stdout)
        print(f"benchmark failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
