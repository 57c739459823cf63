#!/usr/bin/env python3
"""Compares two result sets of the threshold-search benchmark.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are each a file, or a directory of files, holding run.py's
stdout (one {"perfbench_record": ...} line per run; other lines are ignored).
For every workload and end-to-end metric in BENCHMARK.json it prints each
side's median and quartiles, the pairs the change won, and a verdict:

  gain           the change wins at least 9/10 of the pairs (ties count for
                 neither) and the medians differ by more than the parent's
                 quartile distance
  ok             the change's median is no worse than the parent's by more
                 than the metric's bound
  REGRESSION     it is worse by more than the bound
  unresolved     a side's own spread (quartile distance over median) exceeds
                 the bound, and not every change run beats every parent run

Runs pair up by seed when both sides ran the same seeds, else in file order;
alternate which side runs first when collecting them. Exits 1 if any verdict
is REGRESSION.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{workload: [record, ...]} of the untraced runs under `path`."""
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    runs = {}
    for file in files:
        for line in file.read_text().splitlines():
            if not line.startswith('{"perfbench_record"'):
                continue
            record = json.loads(line)["perfbench_record"]
            if record["trace"] == 0:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values):
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def pairs(parent, change):
    """(parent value index, change value index) pairs."""
    parent_seeds = [r["seed"] for r in parent]
    change_seeds = [r["seed"] for r in change]
    if sorted(parent_seeds) == sorted(change_seeds) and len(set(parent_seeds)) == len(parent_seeds):
        return [(parent_seeds.index(s), change_seeds.index(s)) for s in parent_seeds]
    return [(i, i) for i in range(min(len(parent), len(change)))]


def verdict(a, b, better, bound, paired):
    """The comparison of one metric; `a` is the parent, `b` the change."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    won = sum(1 for i, j in paired if sign * (a[i] - b[j]) > 0)
    if paired and won >= 0.9 * len(paired) and abs(b_med - a_med) > a_q3 - a_q1:
        return "gain", won
    worse = sign * (b_med - a_med) / a_med if a_med else float("inf")
    spread = max((a_q3 - a_q1) / a_med if a_med else 0.0,
                 (b_q3 - b_q1) / b_med if b_med else 0.0)
    if spread > bound:
        all_better = all(sign * (x - y) > 0 for x in a for y in b)
        return ("ok" if all_better else "unresolved"), won
    return ("REGRESSION" if worse > bound else "ok"), won


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    spec = json.loads(SPEC.read_text())
    parent, change = load(args.parent), load(args.change)
    regressions = 0
    header = (f"{'workload':14} {'metric':13} {'n':>5}  {'parent median [q1, q3]':>34}"
              f"  {'change median [q1, q3]':>34}  {'ratio':>6}  {'won':>5}  verdict")
    print(header)
    for workload in sorted(set(parent) | set(change)):
        a_runs, b_runs = parent.get(workload, []), change.get(workload, [])
        if not a_runs or not b_runs:
            print(f"{workload:14} missing on one side "
                  f"(parent {len(a_runs)} runs, change {len(b_runs)} runs)")
            continue
        paired = pairs(a_runs, b_runs)
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in a_runs]
            b = [r["metrics"][m["name"]]["value"] for r in b_runs]
            result, won = verdict(a, b, m["better"], m["bound"], paired)
            regressions += result == "REGRESSION"
            ratio = statistics.median(b) / statistics.median(a)
            print(f"{workload:14} {m['name']:13} {len(a):>2}/{len(b):<2}"
                  f"  {summary(a):>34}  {summary(b):>34}  {ratio:6.3f}"
                  f"  {won:>2}/{len(paired):<2}  {result} (bound {m['bound']})")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
