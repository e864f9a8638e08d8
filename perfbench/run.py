#!/usr/bin/env python3
"""End-to-end, layer-by-layer benchmark of the MCM-DIST library.

Usage (from the repository root):

    python3 perfbench/run.py --workload batch-rmat --seed 1 --seconds 25 --trace 0

Builds perfbench/ (an optimized build of ../src plus the perfbench_run
binary from this directory) under .bench_build/, runs one workload in its
own process and prints the binary's host-shape line followed by the result
object as the last line of stdout:

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md). The exit status is nonzero when any output fails
the correctness gate, when the host or build is refused, or when the
repository sources are missing.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("batch-rmat", "batch-road", "service-mixed", "dynamic-churn")
RUN_TIMEOUT_S = 170
BUILD_TYPE = "RelWithDebInfo"


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(root, jobs):
    """Configures and builds perfbench_run; returns its path."""
    source = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    configure = ["cmake", "-S", source, "-B", build_dir,
                 f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
    compile_ = ["cmake", "--build", build_dir, "--target", "perfbench_run",
                "-j", str(jobs)]
    for command in (configure, compile_):
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(command)}")
    return os.path.join(build_dir, "perfbench_run")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--lanes", type=int,
                        help="host lanes per simulated machine")
    parser.add_argument("--reduce", type=int, default=0,
                        help="shrink the inputs (the benchmark's own tests)")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"no library sources under {root}/src; run from the repository root")
        return 2
    try:
        binary = build(root, len(os.sched_getaffinity(0)))
    except (OSError, RuntimeError) as error:
        log(str(error))
        return 2

    data_dir = os.path.join(root, ".bench_build", "data")
    os.makedirs(data_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reduce", str(args.reduce),
               "--data-dir", data_dir]
    if args.lanes is not None:
        command += ["--lanes", str(args.lanes)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.strip().splitlines()
    # Exit 1 is a finished run whose outputs failed the gate; anything else
    # but 0 is a refusal or a crash, which prints no result.
    if done.returncode not in (0, 1) or not lines:
        print("\n".join(lines))
        log(f"perfbench_run refused or failed to run (exit {done.returncode})")
        return 2
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    print(json.dumps(result))
    return 0 if done.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
