#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/perfbench (reused when up to date). Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Exits non-zero without a result when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD_DIR, "-j", jobs]]
    # Configure once; later builds re-glob the sources themselves.
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 2
    binary = os.path.join(BUILD_DIR, "perfbench")
    proc = subprocess.run([binary] + sys.argv[1:])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
