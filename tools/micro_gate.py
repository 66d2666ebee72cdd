#!/usr/bin/env python3
"""Fail when a routing hop's micro_core cost stops being flat.

    ./build/bench/micro_core --benchmark_format=json \\
        --benchmark_out=micro_core.json
    python3 tools/micro_gate.py micro_core.json

Each gate divides one benchmark's time by another's from the same run, so
the speed of the host cancels out and only the cost's shape is checked:
a forwarding hop must not cost O(payload) (the frame checksum is verified
at every hop), and neither a routing lookup nor finding a held peer may
cost O(table size).  Exits 1 when a ratio exceeds its bound or a
benchmark is missing.
"""

import json
import statistics
import sys

# (numerator, denominator, bound).  Release build on a 4-vCPU 2.1 GHz
# Xeon: the hop ratio measured 2.1-2.6 (about 10 with a byte-at-a-time
# checksum), the closest-peer ratio 1.0-1.7 and the find ratio 2.0-2.7
# (about 200 and 185-220 with linear scans).
GATES = (
    ("BM_RoutedPacketForwardHop/1400", "BM_RoutedPacketForwardHop/64", 4.0),
    ("BM_ConnectionTableClosestTo/2000", "BM_ConnectionTableClosestTo/8",
     4.0),
    ("BM_ConnectionTableFind/2000", "BM_ConnectionTableFind/8", 4.0),
)


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        runs = json.load(f)["benchmarks"]
    times = {}
    for run in runs:
        if run.get("run_type", "iteration") == "iteration":
            times.setdefault(run["name"], []).append(run["real_time"])
    failed = False
    for num, den, bound in GATES:
        if num not in times or den not in times:
            print(f"FAIL {num} / {den}: benchmark missing from the run")
            failed = True
            continue
        ratio = statistics.median(times[num]) / statistics.median(times[den])
        ok = ratio <= bound
        failed = failed or not ok
        print(f"{'ok  ' if ok else 'FAIL'} {num} / {den} = {ratio:.2f} "
              f"(bound {bound})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
