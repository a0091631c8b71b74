#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first call configures and builds
perfbench/ (which builds the pnm library from ../src) into the directory
named by CARGO_TARGET_DIR, default .bench_build; later calls only rebuild
what changed.  Build output goes to stderr, so the last stdout line is the
benchmark's JSON result.  Exits nonzero, without a result, when the build
or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(cmake_dir):
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main(argv):
    if "--workload" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    out = build_dir()
    cmake_dir = os.path.join(out, "perfbench")
    try:
        build(cmake_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    command = [os.path.join(cmake_dir, "perfbench"), *argv,
               "--work-dir", os.path.join(out, "perfbench-work")]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
