#!/usr/bin/env python3
"""Builds the dwred ledger benchmark from source and runs one workload.

    python3 ledger/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under ledger/, scratch files (journals, trace output) to
ledger-work/ beside it. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Extra flags (--scale toy) pass through.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = os.path.join(os.path.dirname(HERE), "src", "CMakeLists.txt")


def build(build_dir):
    if not os.path.exists(SOURCES):
        sys.exit("ledger: library sources not found next to the benchmark "
                 "(expected %s)" % SOURCES)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("ledger: build step failed: %s" % " ".join(cmd))


def main():
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(root, "ledger")
    build(build_dir)
    work_dir = os.path.join(root, "ledger-work")
    cmd = [os.path.join(build_dir, "dwred_ledger")] + sys.argv[1:]
    cmd += ["--work-dir", work_dir]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
