#!/usr/bin/env python3
"""Phase-ledger benchmark: build the solver from source, then run one workload.

    python3 phase_ledger/run.py --workload cavity-k8 --seed 1 --seconds 20 --trace 0

Run from the repository root. The package in this directory (CMakeLists.txt)
builds the pdslin library from ../src together with the ledger driver, in
Release mode, into $CARGO_TARGET_DIR (default .bench_build). The driver prints
one line per metric and, as its last stdout line, the JSON result; the exit
code is nonzero when the build fails or any operation failed. See README.md
for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_JOBS = 4
POOL_THREADS = 4  # the shared pool's size, whatever the host reports
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the ledger driver; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "ledger",
                  "-j", str(BUILD_JOBS)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "ledger")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplies the workload's matrix scale (smoke test)")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    env = dict(os.environ, PDSLIN_POOL_THREADS=str(POOL_THREADS))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale)]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("run.py: ledger exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(rc)


if __name__ == "__main__":
    main()
