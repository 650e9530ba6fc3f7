#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload paper6|grid16|giad_session \
        --seed N --seconds S --trace 0|1

Builds the benchmark driver (and the library sources it links) from the
checkout into .bench_build/perfbench, runs one workload, and prints the
driver's JSON result as the last line of standard output. Build output goes
to standard error. Exits non-zero without a result when the build or the run
fails. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper6", "grid16", "giad_session")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j4"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", os.path.join(HERE, "digests.json"),
           "--trace-out", os.path.join(BUILD, f"trace-{args.workload}-{args.seed}.json")]
    try:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.run(cmd + ["--spawn-ns", str(spawn_ns)], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: driver exited with {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout if proc.stdout.endswith("\n") else proc.stdout + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
