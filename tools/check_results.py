#!/usr/bin/env python3
"""Results reproduction check: the series under results/ must be
regenerated byte for byte by the code that claims to produce them.

Every bench below is deterministic, so its outputs are pure functions of
the source: the discrete-event benches run on simulated time and seeded
RNG streams, and the science benches (Figs. 2, 5/6, §2.2) run seeded
model integrations. Each bench runs in a fresh temporary working
directory; every file it writes under results/ is compared with the
checked-in copy, and any byte difference — or a tracked file the bench
no longer writes — fails.

Usage:
    python3 tools/check_results.py [build_dir]

build_dir defaults to build/ (the benches live in <build_dir>/bench/).
Run it from the repository root. Exit codes: 0 every series reproduces,
1 a series differs or is missing, 2 bad inputs (missing binary, bench
crashed).
"""

import filecmp
import os
import subprocess
import sys
import tempfile
import time

# Benches whose results/ outputs carry no wall-clock numbers, mapped to
# the files each one must write.
BENCHES = {
    "bench_local_cluster_io": [
        "bench_local_cluster_io.csv",
        "bench_local_cluster_io.telemetry.json",
    ],
    "bench_fault_recovery": [
        "bench_fault_recovery.csv",
        "bench_fault_recovery.telemetry.json",
    ],
    "bench_forecast_service": [
        "bench_forecast_service.csv",
        "bench_forecast_service.telemetry.json",
    ],
    "bench_serial_vs_parallel": [
        "bench_serial_vs_parallel.csv",
        "bench_serial_vs_parallel.telemetry.json",
    ],
    "bench_scheduler_compare": [
        "bench_scheduler_compare.csv",
        "bench_scheduler_compare.telemetry.json",
    ],
    "bench_policy_ablation": [
        "bench_policy_failures.csv",
        "bench_policy_cancel.csv",
        "bench_policy_headroom.csv",
    ],
    "bench_nested_jobs": [
        "bench_nested_jobs.csv",
        "bench_nested_jobs_mixed.csv",
    ],
    "bench_acoustics_fanout": ["bench_acoustics_fanout.csv"],
    "bench_esse_convergence": ["bench_esse_convergence.csv"],
    "bench_uncertainty_maps": [
        "bench_uncertainty_maps.csv",
        "fig5_sst_stddev.csv",
        "fig5_sst_stddev.pgm",
        "fig6_t30m_stddev.csv",
        "fig6_t30m_stddev.pgm",
    ],
    "bench_acoustic_uncertainty": ["bench_acoustic_uncertainty.csv"],
}


def run_bench(binary, expected):
    """Run one bench in a scratch cwd; return a list of failure strings."""
    failures = []
    with tempfile.TemporaryDirectory(prefix="essex_results_") as cwd:
        start = time.monotonic()
        proc = subprocess.run([binary], cwd=cwd, capture_output=True,
                              text=True, check=False)
        elapsed = time.monotonic() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise RuntimeError(f"{binary} exited {proc.returncode}")
        out_dir = os.path.join(cwd, "results")
        written = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
        for name in written:
            if name not in expected:
                failures.append(f"{name}: written but not listed for "
                                f"{os.path.basename(binary)}")
        for name in expected:
            fresh = os.path.join(out_dir, name)
            tracked = os.path.join("results", name)
            if not os.path.exists(fresh):
                failures.append(f"{name}: not written by the bench")
            elif not os.path.exists(tracked):
                failures.append(f"{name}: written but not checked in")
            elif not filecmp.cmp(fresh, tracked, shallow=False):
                failures.append(f"{name}: differs from results/{name}")
        status = "ok" if not failures else "DIFF"
        print(f"{os.path.basename(binary):28s} {elapsed:6.1f} s  {status}")
    return failures


def main(argv):
    build_dir = argv[1] if len(argv) > 1 else "build"
    if not os.path.isdir("results"):
        print("run from the repository root (no results/ here)",
              file=sys.stderr)
        return 2
    failures = []
    for bench, expected in BENCHES.items():
        binary = os.path.abspath(os.path.join(build_dir, "bench", bench))
        if not os.access(binary, os.X_OK):
            print(f"missing bench binary: {binary}", file=sys.stderr)
            return 2
        try:
            failures += run_bench(binary, expected)
        except RuntimeError as err:
            print(err, file=sys.stderr)
            return 2
    for f in failures:
        print(f"FAIL {f}")
    if failures:
        print(f"{len(failures)} results/ series do not reproduce")
        return 1
    print("every series under results/ reproduces byte for byte")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
