#!/usr/bin/env python3
"""Builds and runs the three-clock benchmark.

    python3 clockbench/run.py --workload paper|buffered|exec --seed N \
        --seconds S --trace 0|1 [--loop-seed N]
    python3 clockbench/run.py --self-test

Configures clockbench/ (which builds the sbmp libraries from the
enclosing tree) into .bench_build/clockbench, builds the binary the run
needs, and runs it. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. --trace 1 runs the allocation-
counting binary and leaves its Chrome trace under
.bench_build/clockbench/traces. --self-test builds and runs the
benchmark's own tests. See clockbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "clockbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(target):
    if not any(os.path.exists(os.path.join(BUILD, name))
               for name in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=["paper", "buffered", "exec"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--loop-seed", type=int)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1 or (
            args.loop_seed is not None and args.loop_seed < 0):
        parser.error("--seed, --loop-seed and --seconds must be positive")

    try:
        if args.self_test:
            return subprocess.run([build("clockbench_test")],
                                  timeout=RUN_TIMEOUT_S).returncode
        binary = build("clockbench_traced" if args.trace else "clockbench")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        print(f"clockbench: build failed: {error}", file=sys.stderr)
        return 2

    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", traces]
    if args.loop_seed is not None:
        command += ["--loop-seed", str(args.loop_seed)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("clockbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
