#!/usr/bin/env python3
"""Link audit: list the src/ functions no shipped binary reaches
(DESIGN.md §18) and fail on any name the keep list does not name.

The shipped binaries are every bench and example (bench/CMakeLists.txt,
examples/CMakeLists.txt) and the end-to-end benchmark essex_perfbench.
They are linked in a Debug build with -ffunction-sections and
--gc-sections, so each keeps only the library functions some path of it
can call. The audit prints the global text symbols (`T`) of every
libessex_*.a except the testkit's that none of them keeps: functions
only the unit tests reach. Each printed name must either be deleted with
the tests that only exercise it, or be listed, under its category, in
tools/link_audit_keep.txt.

Names are compared without their parameter lists and ABI tags, so the
keep list names all overloads of a function at once. Keep-list entries
the audit no longer prints (the function gained a shipped caller or is
gone) are reported as stale, but do not fail the run.

Usage:
    python3 tools/link_audit.py [--build-dir DIR] [--keep FILE] [--jobs N]

Run it from the repository root. DIR (default build-audit/) receives two
build trees, main/ and perfbench/. Exit codes: 0 every unreached name is
kept, 1 some unreached name is not, 2 a build step or nm failed.
"""

import argparse
import os
import re
import subprocess
import sys

AUDIT_FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def run(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("link_audit: failed: %s\n" % " ".join(cmd))
        sys.exit(2)
    return proc.stdout


def targets(cmake_file, function):
    with open(cmake_file) as f:
        return re.findall(r"^%s\((\w+)\)" % function, f.read(), re.M)


def strip_params(name):
    """`ns::f(int) const` -> `ns::f`: cut at the `(` matching the last `)`,
    so template arguments and operator names stay intact."""
    depth = 0
    for i in range(name.rfind(")"), -1, -1):
        if name[i] == ")":
            depth += 1
        elif name[i] == "(":
            depth -= 1
            if depth == 0:
                return name[:i]
    return name


def symbols(path, kinds):
    out = run(["nm", "-C", "--defined-only", path])
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in kinds:
            names.add(re.sub(r"\[abi:\w+\]", "", strip_params(parts[2])))
    return names


def read_keep(path):
    keep = set()
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if line:
                keep.add(line)
    return keep


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build-audit")
    ap.add_argument("--keep", default="tools/link_audit_keep.txt")
    ap.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1))
    args = ap.parse_args()

    main_dir = os.path.join(args.build_dir, "main")
    pb_dir = os.path.join(args.build_dir, "perfbench")
    shipped = (targets("bench/CMakeLists.txt", "essex_add_bench") +
               targets("examples/CMakeLists.txt", "essex_add_example"))
    jobs = "-j%d" % args.jobs
    run(["cmake", "-S", ".", "-B", main_dir] + AUDIT_FLAGS)
    run(["cmake", "--build", main_dir, jobs, "--target"] + shipped)
    run(["cmake", "-S", "perfbench", "-B", pb_dir] + AUDIT_FLAGS)
    run(["cmake", "--build", pb_dir, jobs, "--target", "essex_perfbench"])

    binaries = ([os.path.join(main_dir, "bench", t) for t in shipped
                 if t.startswith("bench_")] +
                [os.path.join(main_dir, "examples", t) for t in shipped
                 if not t.startswith("bench_")] +
                [os.path.join(pb_dir, "essex_perfbench")])
    kept = set()
    for b in binaries:
        kept |= symbols(b, {"T", "t", "W"})

    defined = set()
    src_libs = os.path.join(main_dir, "src")
    for root, _, files in os.walk(src_libs):
        for f in files:
            if (f.startswith("libessex_") and f.endswith(".a") and
                    f != "libessex_testkit.a"):
                defined |= symbols(os.path.join(root, f), {"T"})

    unreached = defined - kept
    keep = read_keep(args.keep)
    unlisted = sorted(unreached - keep)
    stale = sorted(keep - unreached)
    print("link audit: %d binaries, %d library functions, %d unreached, "
          "%d kept" % (len(binaries), len(defined), len(unreached),
                       len(unreached & keep)))
    for name in stale:
        print("stale keep entry (now reached or gone): %s" % name)
    for name in unlisted:
        print("UNREACHED: %s" % name)
    if unlisted:
        print("link audit: %d name(s) only tests reach; delete them with "
              "their tests or list them in %s" % (len(unlisted), args.keep))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
