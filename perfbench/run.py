#!/usr/bin/env python3
"""End-to-end benchmark entry point (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the libraries from ../src and the
benchmark into .bench_build (Release), runs the metric-helper self-test,
then runs the benchmark, whose last stdout line is the JSON result. Exits
nonzero, without a result, when the sources are missing, the build or
the self-test fails, or the benchmark times out; exits 1 with
"correct": false when an output check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("monterey_48h", "large_localized", "gyre_stream")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build; build chatter goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no ESSEX sources at {os.path.join(ROOT, 'src')}")
        return 2
    if not build():
        log("build failed")
        return 2
    if subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                      stdout=sys.stderr).returncode:
        log("metric-helper self-test failed")
        return 2
    cmd = [os.path.join(BUILD, "essex_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        # The benchmark prints its own result line; pass stdout through.
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was killed")
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
