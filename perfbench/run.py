#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark is built from source into
$CARGO_TARGET_DIR (default .bench_build) with CMake; the first run builds
the library and takes about a minute on 4 cores. The last line of stdout
is the run's JSON result. --selftest builds and runs the benchmark's own
tests instead.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir, target):
    # Configure once; later runs only rebuild what changed. Build output
    # goes to stderr so stdout stays the benchmark's own.
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target", target],
                   check=True, stdout=sys.stderr)


def run(cmd):
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


def main():
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    selftest = sys.argv[1:] == ["--selftest"]
    target = "perfbench_tests" if selftest else "perfbench"
    try:
        build(build_dir, target)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, target)
    work_dir = os.path.join(build_dir, "work")
    if selftest:
        return run([binary, work_dir])
    return run([binary, *sys.argv[1:], "--work-dir", work_dir])


if __name__ == "__main__":
    sys.exit(main())
