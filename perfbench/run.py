#!/usr/bin/env python3
"""Build the CHF benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload paper_suite --seed 1 \
        --seconds 15 --trace 0

Run from the repository root. The driver and the chf library are
configured and built (optimized, RelWithDebInfo) into
.bench_build/perfbench; the build is incremental, so only the first
run in a checkout compiles anything. Build output goes to stderr.
The driver's stdout is passed through: its last line is the result
JSON. Exits non-zero, without a result, when the build fails (for
example outside a full checkout) or the driver times out.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper_suite", "large_fn", "serve_mix", "batch_4t")
RUN_TIMEOUT_S = 170


def build():
    """Configure and build the driver; True on success."""
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    generated = [os.path.join(BUILD, name)
                 for name in ("build.ninja", "Makefile")]
    if not any(os.path.isfile(path) for path in generated):
        if subprocess.run(configure, stdout=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                          stdout=sys.stderr, cwd=ROOT).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(BUILD, "chf_perfbench")
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 3
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
