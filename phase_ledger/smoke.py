#!/usr/bin/env python3
"""Smoke test of the phase-ledger benchmark at tiny scale.

    python3 phase_ledger/smoke.py [--scale 0.1]

Run from the repository root. Runs every workload of BENCHMARK.json through
run.py with its matrix shrunk by --scale, once untraced and once traced, and
fails (exit 1) when a run exits nonzero or reports a failed operation, when a
metric BENCHMARK.json names is missing or carries another unit, or when a
correctness check the mode must run did not run.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Checks every run must report, by mode; the traced pass of a threaded
# workload (its header line says threads=N, N > 1) must also compare X
# against the single-thread run.
REQUIRED_CHECKS = {
    0: ["residual", "determinism.repeat"],
    1: ["residual", "cross.partition", "cross.lu_d", "cross.s_tilde",
        "cross.lu_schur_fill"],
}


def run(workload, trace, scale):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0.1", "--trace", str(trace),
           "--scale", str(scale)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def problems_of(trace, spec, rc, lines):
    if rc != 0:
        return ["exit code %d" % rc]
    if not lines:
        return ["no output"]
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append("correct=%s attempted=%s failed=%s" % (
            result.get("correct"), result.get("attempted"), result.get("failed")))
    metrics = result.get("metrics", {})
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("missing metric " + m["name"])
        elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append("metric %s: %s, expected unit %s" % (m["name"], got, m["unit"]))
    checks, threads = {}, 1
    for line in lines:
        if line.startswith("CHECKS "):
            checks = json.loads(line[len("CHECKS "):])
        found = re.search(r"^workload .* threads=(\d+) ", line)
        if found:
            threads = int(found.group(1))
    required = list(REQUIRED_CHECKS[trace])
    if trace and threads > 1:
        required.append("determinism.threads")
    for name in required:
        if checks.get(name, {}).get("run", 0) < 1:
            problems.append("check %s did not run" % name)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=float, default=0.1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            rc, lines, err = run(w["name"], trace, args.scale)
            problems = problems_of(trace, spec, rc, lines)
            print("%-18s trace=%d %s" % (w["name"], trace,
                                          "ok" if not problems else "; ".join(problems)))
            if problems:
                failures += 1
                sys.stderr.write(err[-2000:])
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
