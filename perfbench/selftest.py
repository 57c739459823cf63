#!/usr/bin/env python3
"""Self-test of the threshold-search benchmark (see README.md).

    python3 perfbench/selftest.py

Runs every workload at tiny size (one search per sweep) through run.py and
checks that
  1. the metric names and units match BENCHMARK.json, untraced and traced;
  2. trials, search.probes and distortion.touched_rows_per_trial repeat
     exactly across two runs, and the default seed passes every output check;
  3. a deliberately wrong m* in the table shows up in failed_frac.
Exits 0 when every check passes. Takes about twenty seconds once built.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".bench_build" / "perfbench" / "selftest"
# The first search of each workload at the default seed, as keyed in the
# m* table.
FIRST_SEARCH = {
    "cs-sweep": ("e1.d/d=4", 11),
    "dense-e8": ("e8.gaussian/d=4", 31),
}

failures = []


def check(condition, message):
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        failures.append(message)


def run(workload, trace, table=None):
    """run.py at tiny size and the default seed: (result line, record)."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", "0", "--seconds", str(SPEC["run_seconds"]),
               "--trace", str(trace), "--tiny"]
    if table is not None:
        command += ["--table", str(table)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"run.py {workload} --trace {trace} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["perfbench_record"]


def units(metrics):
    return {name: metric["unit"] for name, metric in metrics.items()}


def main():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    table_lines = (BENCH_DIR / "mstar_table.txt").read_text().splitlines()
    for workload in [w["name"] for w in SPEC["workloads"]]:
        first, first_record = run(workload, 0)
        second, _ = run(workload, 0)
        traced, traced_record = run(workload, 1)
        traced_again, _ = run(workload, 1)

        check(sorted(first) == ["attempted", "correct", "failed", "metrics"],
              f"{workload}: result line has exactly the four keys")
        check(units(first["metrics"]) == end_to_end,
              f"{workload}: end-to-end metric names and units match BENCHMARK.json")
        check(units(traced["metrics"]) == per_layer,
              f"{workload}: per-layer metric names and units match BENCHMARK.json")
        check(first["correct"] and first["failed"] == 0 and traced["correct"],
              f"{workload}: the default seed passes every output check")
        check(first_record["failed_frac"] == 0.0,
              f"{workload}: failed_frac is 0 at the default seed")
        check(traced_record["mismatched_probes"] == 0,
              f"{workload}: the replay matches every probe's failure count")
        for name, a, b in [
                ("trials", first, second),
                ("search.probes", traced, traced_again),
                ("distortion.touched_rows_per_trial", traced, traced_again)]:
            check(a["metrics"][name]["value"] == b["metrics"][name]["value"],
                  f"{workload}: {name} repeats exactly "
                  f"({a['metrics'][name]['value']})")

        label, seed = FIRST_SEARCH[workload]
        key = f"{label},{seed},"
        wrong = [f"{line.rsplit(',', 1)[0]},{int(line.rsplit(',', 1)[1]) + 1}"
                 if line.startswith(key) else line for line in table_lines]
        check(wrong != table_lines, f"{workload}: the table records {label}@{seed}")
        wrong_table = SCRATCH / f"{workload}-wrong-mstar.csv"
        wrong_table.write_text("\n".join(wrong) + "\n")
        result, record = run(workload, 0, table=wrong_table)
        check(record["failed_frac"] > 0 and result["failed"] >= 1
              and not result["correct"],
              f"{workload}: a wrong m* for {label} shows up in failed_frac "
              f"({record['failed_frac']:.3f})")

    print(f"\n{len(failures)} check(s) failed" if failures else "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
