#!/usr/bin/env python3
"""DGSIM's benchmark, as one command.

Run from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is paper-matrix, fuzz-oracle or long-tier.

Builds the simulator library and the benchmark program, dgbench, from
source into .bench_build (Release), runs it, and passes its output
through. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is dgbench's: 0 when
every output matched the reference, non-zero otherwise.

    python3 perfbench/run.py --self-test

builds and runs the tests of the benchmark's own logic.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = os.path.join(os.path.dirname(HERE), "src")
BUILD_DIR = ".bench_build"
# The build is the only step with parallel work; keep it small on a
# shared machine.
BUILD_JOBS = str(min(4, os.cpu_count() or 1))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(target):
    """Configure once, then build @p target; build output goes to stderr."""
    if not os.path.isfile(os.path.join(SOURCES, "CMakeLists.txt")):
        log("simulator sources not found at " + SOURCES)
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # A half-written cache would make the next run skip configure.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    return subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", target, "-j", BUILD_JOBS],
        stdout=sys.stderr).returncode == 0


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["paper-matrix", "fuzz-oracle", "long-tier"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    target = "dgbench_selftest" if args.self_test else "dgbench"
    if not build(target):
        log("build failed")
        return 2
    binary = os.path.join(BUILD_DIR, target)
    if args.self_test:
        return subprocess.run([binary]).returncode

    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--git-sha", git_sha()]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if done.returncode == 0 and (not isinstance(result, dict)
                                 or set(result) != RESULT_KEYS):
        log("dgbench printed no result line")
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
