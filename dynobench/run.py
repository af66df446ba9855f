#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 dynobench/run.py --workload fig7|service|degraded --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library from ../src together with the benchmark program under
.bench_build/dynobench (later calls rebuild incrementally); the call then
runs one measurement and prints the program's JSON result as the last line
of standard output. Build output goes to standard error. With --trace 1 the
spans of the representative traced pass are written to
.bench_build/traces/<workload>-seed<N>.json.

NOTES.md describes the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "dynobench")
WORKLOADS = ("fig7", "service", "degraded")
DEFAULT_SEED = 1
# One run's own limit; the build of a fresh checkout is not counted.
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found: run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr so the result stays the last stdout line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    inherited = sorted(k for k in os.environ if k.startswith("DYNO_"))
    if inherited:
        fail("refusing inherited knobs: " + ", ".join(inherited))

    build()
    command = [os.path.join(BUILD_DIR, "dynobench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    output = run.stdout.decode()
    sys.stdout.write(output)
    lines = output.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail("no result line")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
