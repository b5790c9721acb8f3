#!/usr/bin/env python3
"""Determinism self-test of the perfbench benchmark.

    python3 perfbench/selftest.py [--seconds 1]

For every workload, two traced runs with one seed must print the same
op-stream hash, the same per-layer counts and the same failed_ratio
and prediction_error_pct; a run with another seed must print a
different op-stream hash.  The percentile helper must refuse any
percentile with fewer than 10 samples beyond it.  Exits non-zero on
the first class of failure found (all are reported).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

TIMING_UNITS = {"us", "s"}


def traced_run(binary, workload, seed, seconds):
    scratch = os.path.join(bench.build_dir(), "selftest-%s-%d-%d" % (
        workload, seed, os.getpid()))
    try:
        out = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1", "--scratch", scratch],
            capture_output=True, text=True, timeout=bench.RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if out.returncode != 0:
        raise RuntimeError("%s seed %d exited %d:\n%s" % (
            workload, seed, out.returncode, out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    stream = next(l.split("=", 1)[1] for l in lines
                  if l.startswith("op_stream_hash="))
    result = json.loads(lines[-1])
    counts = {name: m["value"] for name, m in result["metrics"].items()
              if m["unit"] not in TIMING_UNITS
              and not name.endswith("share_pct")
              and not name.startswith("trace.")}
    return stream, counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    binary = bench.build()
    failures = []

    rc = subprocess.run([binary, "--selftest-percentile"]).returncode
    if rc != 0:
        failures.append("percentile helper accepted a too-thin tail")

    for workload in bench.WORKLOADS:
        first = traced_run(binary, workload, 5, args.seconds)
        second = traced_run(binary, workload, 5, args.seconds)
        other = traced_run(binary, workload, 6, args.seconds)
        if first[0] != second[0]:
            failures.append("%s: op-stream hash differs for one seed" % workload)
        differing = sorted(k for k in first[1] if first[1][k] != second[1].get(k))
        if differing:
            failures.append("%s: counts differ for one seed: %s" % (
                workload, ", ".join(differing)))
        if first[0] == other[0]:
            failures.append("%s: another seed gave the same op stream" % workload)
        print("%-9s op stream %s, %d counts repeat%s" % (
            workload, first[0], len(first[1]) - len(differing),
            "" if not differing else ", %d differ" % len(differing)))

    for failure in failures:
        print("FAIL: " + failure)
    print("selftest: %s" % ("ok" if not failures else "FAILED"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
