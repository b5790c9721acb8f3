#!/usr/bin/env python3
"""Build the perfbench package against the library sources and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload transfer --seed 1 --seconds 10 --trace 0

Workloads: predict, transfer, grid.  --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics of the traced run.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; per-run scratch files (WAL, snapshots) live under it
and are removed when the run ends.  A traced run also writes the spans
of its first traced ops there, as spans-<workload>.tsv.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("predict", "transfer", "grid")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return target


def build():
    """Configures (once) and builds wadp_perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources not found under " + ROOT)
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", PACKAGE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "wadp_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "wadp_perfbench")


def run(binary, args, extra=()):
    """Runs one workload; returns its exit code (stdout passes through)."""
    scratch = os.path.join(build_dir(), "run-%s-%d" % (args.workload,
                                                       os.getpid()))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch, *extra]
    proc = subprocess.Popen(command)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--span-dump", default=None,
                        help="where the traced run writes its first spans as "
                        "TSV (default: spans-<workload>.tsv in the build "
                        "directory)")
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2
    sys.stdout.flush()
    extra = []
    if args.trace:
        dump = args.span_dump or os.path.join(
            build_dir(), "spans-%s.tsv" % args.workload)
        extra = ["--span-dump", dump]
    return run(binary, args, extra)


if __name__ == "__main__":
    sys.exit(main())
