#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one measurement.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table1|vocoder|campaign \\
        --seed N --seconds S --trace 0|1

The build (CMake, Release) and the files a run writes (campaign journal,
span file) go under $CARGO_TARGET_DIR, or .bench_build when it is unset.
Build output goes to standard error, so the last line of standard output is
the JSON result of `perfbench`. The exit code is perfbench's: 0 when every
output checked out, 1 when a check failed, 2 on a usage, set-up or build
error.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["table1", "vocoder", "campaign"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = os.path.join(target, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    sys.stdout.flush()
    return subprocess.run([
        os.path.join(build, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--out", os.path.join(target, "perfbench-out"),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
