"""Compare two sets of end-to-end results, parent against change.

    python3 perfbench/compare.py PARENT/perfbench/results CHANGE/perfbench/results

Each directory holds the ``<workload>-seed<n>-trace0.json`` records that
run.py writes; runs with the same workload and seed form a pair. For each
workload and metric this prints both medians and quartiles, the pairs the
change wins, and a verdict: ``gain`` when the change wins at least 9 in 10
pairs and the medians differ by more than the parent's quartile spread,
``regression`` when the change's median is worse by more than the bound in
BENCHMARK.json, ``unresolved`` when the parent's own spread exceeds that
bound, and ``same`` otherwise.
"""
from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in glob.glob(os.path.join(directory, "*-trace0.json")):
        with open(path) as fh:
            rec = json.load(fh)
        runs[(rec["workload"], rec["env"]["seed"])] = rec["metrics"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parent, change = load(argv[0]), load(argv[1])
    pairs = sorted(parent.keys() & change.keys())
    if not pairs:
        print("no (workload, seed) pair is in both directories", file=sys.stderr)
        return 2
    for workload in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == workload]
        for m in spec["end_to_end"]:
            name, sign = m["name"], (1 if m["better"] == "higher" else -1)
            a = [parent[(workload, s)][name]["value"] for s in seeds]
            b = [change[(workload, s)][name]["value"] for s in seeds]
            wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
            qa, qb = quartiles(a), quartiles(b)
            spread = (qa[2] - qa[0]) / qa[1]
            worse = -sign * (qb[1] - qa[1]) / qa[1]
            if wins >= 0.9 * len(seeds) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
                verdict = "gain"
            elif worse > m["bound"]:
                verdict = "regression"
            elif spread > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "same"
            print(f"{workload:7s} {name:12s} parent {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] "
                  f"change {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {m['unit']} "
                  f"wins {wins}/{len(seeds)} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
