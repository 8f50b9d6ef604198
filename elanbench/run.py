#!/usr/bin/env python3
"""Builds elanbench from the repository's sources and runs one workload.

    python3 elanbench/run.py --workload train|elastic|live|replay \
        --seed N --seconds S --trace 0|1
    python3 elanbench/run.py --self-test

Run from the repository root. The build (CMake, into .bench_build/) happens
on the first call and is a no-op afterwards; its output goes to stderr. The
benchmark's own output, ending in one JSON result line, goes to stdout.
See elanbench/README.md.
"""
import argparse
import os
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(".bench_build", "elanbench")
RUN_DIR = os.path.join(".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "bin", "elanbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")) or not os.path.isdir(
        os.path.join(ROOT, "tools")
    ):
        sys.exit("elanbench: the program's src/ and tools/ are missing; nothing to build")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True,
            stdout=sys.stderr,
        )
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs], check=True, stdout=sys.stderr
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    os.chdir(ROOT)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"elanbench: build failed: {err}")

    cmd = [BINARY, "--work-dir", RUN_DIR]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += [
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
    # The binary times its set-up from this CLOCK_MONOTONIC reading.
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    # Own process group, so a run that overstays is stopped with every
    # process it started (the live workload's launcher, AM and workers).
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"elanbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
