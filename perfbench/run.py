#!/usr/bin/env python3
"""Builds the ftx host-cost benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fleet-2pc --seed 1 --seconds 25 --trace 0

Run from the repository root. The runner (ftx_perfbench) and the library
sources it links are built with CMake into .bench_build/ under the current
directory; compiler output goes to stderr, so the last line of stdout is the
runner's JSON result. Extra modes:

    python3 perfbench/run.py --selftest    build and run the benchmark's tests
    python3 perfbench/run.py --host-meta   print the host/build description

Exits nonzero, printing no result, when the build fails (for instance when
the library sources are absent).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(os.getcwd(), ".bench_build", "cmake")
JOBS = "4"


def build(target):
    """Configures (once) and builds `target`; returns the binary path or None."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target, "-j", JOBS])
    for step in steps:
        proc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if proc.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}", file=sys.stderr)
            return None
    binary = os.path.join(BUILD_DIR, target)
    return binary if os.path.exists(binary) else None


def main(argv):
    if argv == ["--selftest"]:
        binary = build("perfbench_selftest")
        if binary is None:
            return 2
        return subprocess.run([binary], check=False).returncode

    binary = build("ftx_perfbench")
    if binary is None:
        return 2
    args = list(argv)
    # Traced runs keep their spans next to the build tree.
    value = dict(zip(args, args[1:]))
    if value.get("--trace") == "1" and "--spans-out" not in args:
        name = value.get("--workload", "run")
        args += ["--spans-out", os.path.join(os.getcwd(), ".bench_build", f"spans-{name}.json")]
    sys.stdout.flush()
    return subprocess.run([binary] + args, check=False).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
