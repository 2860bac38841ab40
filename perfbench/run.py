#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures perfbench/ with CMake into .bench_build/perfbench (Release),
builds the `perfbench` target (the library plus the benchmark program,
nothing else), then runs it with the same arguments. The program's standard
output is passed through; its last line is the JSON result. Exits non-zero without printing a
result when the build or the run fails.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    # Configure until a configure has completed (it writes the Makefile).
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                fail("build step failed: %s (%s)" % (" ".join(step), error))
            if done.returncode != 0:
                fail("build step failed: %s (log: %s)" % (" ".join(step), log_path))


def main():
    if not os.path.isfile(os.path.join(SOURCE, "CMakeLists.txt")):
        fail("run from the root of a checkout (perfbench/ not found)")
    build()
    try:
        done = subprocess.run([BINARY] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
