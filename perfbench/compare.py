#!/usr/bin/env python3
"""Compares the saved stdout of two sets of benchmark runs.

    python3 perfbench/compare.py BASE.out CHANGE.out

Each file holds the stdout of one or more `perfbench/run.py` runs. For
every workload and metric it prints both medians, their ratio, and the
quartile spread of each side. A workload whose input fingerprints differ
between the two sides (for example after a solver change, which changes
the traces the checkers read) is labelled INPUTS DIFFER: its numbers
compare different inputs, not just different code. The median share of
CPU time stolen by the hypervisor is shown per side: wall-clock metrics
from a contended host are not comparable with those from a quiet one."""

import json
import statistics
import sys
from collections import defaultdict


def load(path):
    """`{workload: {"fingerprints": set, "metrics": {name: [values]}}}`"""
    runs = defaultdict(lambda: {"fingerprints": set(), "metrics": defaultdict(list), "steal": []})
    record = None
    for line in open(path):
        if line.startswith("perfbench-record "):
            record = json.loads(line.split(" ", 1)[1])
        elif line.startswith("{") and record is not None:
            result = json.loads(line)
            side = runs[record["workload"]]
            side["fingerprints"].add(json.dumps(record["fingerprints"], sort_keys=True))
            if record.get("host_steal_share") is not None:
                side["steal"].append(record["host_steal_share"])
            for name, metric in result["metrics"].items():
                side["metrics"][name].append(metric["value"])
            record = None
    return runs


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, change = load(sys.argv[1]), load(sys.argv[2])
    for workload in sorted(set(base) & set(change)):
        b, c = base[workload], change[workload]
        label = "" if b["fingerprints"] == c["fingerprints"] else "  INPUTS DIFFER"
        steal = [statistics.median(side["steal"]) if side["steal"] else float("nan") for side in (b, c)]
        print(f"{workload}{label}  host steal share {steal[0]:.3f} -> {steal[1]:.3f}")
        for name in sorted(set(b["metrics"]) & set(c["metrics"])):
            bv, cv = b["metrics"][name], c["metrics"][name]
            bm, cm = statistics.median(bv), statistics.median(cv)
            ratio = cm / bm if bm else float("nan")
            print(f"  {name:34s} {bm:12.6g} -> {cm:12.6g}  x{ratio:6.3f}  "
                  f"spread {spread(bv):.3f}/{spread(cv):.3f}  n={len(bv)}/{len(cv)}")


if __name__ == "__main__":
    main()
