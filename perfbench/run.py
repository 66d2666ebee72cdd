#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload sim_bulk [--seed 1] [--seconds 30]
                             [--trace 0|1]

Run from the repository root.  The first call configures and builds
perfbench/ (a CMake package over ../src, Release) into .bench_build/;
later calls only re-check the build.  Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result.  Each call runs
its workload in a fresh process, so peak RSS is that workload's own.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("sim_bulk", "sim_flashcrowd", "udp_loopback")
RUN_TIMEOUT_S = 170


def build(root):
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "wowbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=root).returncode != 0:
            return None
    return os.path.join(out, "wowbench")


def main():
    parser = argparse.ArgumentParser(allow_abbrev=False, description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1; claim checks also "
                             "use seed 2)")
    parser.add_argument("--seconds", type=int, default=30,
                        help="measured-phase budget (udp_loopback; the "
                             "rounds of sim_flashcrowd; sim_bulk runs a "
                             "fixed count)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run printing the per-layer ledger")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    if binary is None:
        print("wowbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace]
    try:
        return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("wowbench: timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
