#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

    python3 loadbench/run.py --workload steady --seed 1 --seconds 10 --trace 0
    python3 loadbench/run.py --test        # the benchmark's own unit tests

The build lives in .bench_build/loadbench under the checkout root and is
incremental; its output goes to stderr so that the last line on stdout is
the benchmark's JSON result. Exits non-zero without a result when the
build fails (for instance when the program sources are missing).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "loadbench")


def build(targets):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    if sys.argv[1:] == ["--test"]:
        if not build(["loadbench_test"]):
            return 2
        return subprocess.run(["ctest", "--test-dir", BUILD, "--output-on-failure"]).returncode
    if not build(["loadbench"]):
        print("loadbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([os.path.join(BUILD, "loadbench")] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
