#!/usr/bin/env python3
"""Runs one workload of the threshold-search benchmark (see README.md).

    python3 perfbench/run.py --workload cs-sweep --seed 1 --seconds 10 --trace 0

Builds the driver from the checkout's sources into .bench_build/ when needed,
runs it, and prints two lines on stdout: a full result record
({"perfbench_record": ...}, read by compare.py) and, last, the result line
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end metrics; with --trace 1 the per-layer metrics of the traced
replay. Exits non-zero without a result line when the build or the driver
fails.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"
TABLE = BENCH_DIR / "mstar_table.txt"
WORKLOADS = ("cs-sweep", "dense-e8")

# name -> unit of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = {
    "wall_s": "s",
    "mstar_p50_ms": "ms",
    "cpu_s": "s",
    "trials": "count",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# Set-up is a few milliseconds, so one sample is noise; its metric is the
# median over this many fresh launches.
SETUP_LAUNCHES = 25
# A run must finish within 180 s; the driver launches get this much of it,
# counted from the end of the build.
RUN_DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 850.0


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_group(command, timeout, stdout):
    """Runs `command` in its own process group; on timeout kills the whole
    group (the driver's forked shard workers too) and waits for it."""
    try:
        proc = subprocess.Popen(command, stdout=stdout, stderr=sys.stderr,
                                start_new_session=True)
    except OSError as error:
        raise BenchError(f"cannot start {command[0]}: {error}")
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{Path(command[0]).name} timed out")
    if proc.returncode != 0:
        raise BenchError(f"{Path(command[0]).name} exited {proc.returncode}")
    return out


def build():
    """Configures (once) and builds the driver; a no-op when up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no sources to build at {ROOT}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_group(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, sys.stderr)
    run_group(["cmake", "--build", str(BUILD_DIR), "--target",
               "perfbench_driver", "-j", "4"], BUILD_TIMEOUT_S, sys.stderr)


def launch(args, deadline):
    """Runs the driver; returns (parsed JSON record, launch time in ns)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before launching the driver")
    start_ns = time.monotonic_ns()
    out = run_group([str(DRIVER), *args], remaining, subprocess.PIPE)
    try:
        return json.loads(out.decode().strip().splitlines()[-1]), start_ns
    except (IndexError, ValueError) as error:
        raise BenchError(f"unparsable driver output: {error}")


def source_digest():
    """sha256 over the sources the driver is built from (path + content)."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", BENCH_DIR.name):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def metric(value, unit):
    return {"value": value, "unit": unit}


def record_table(path, outcomes):
    """Merges the searches' m* into the label,seed,m_star table at `path`."""
    rows = {}
    if path.is_file():
        for line in path.read_text().splitlines():
            if line and not line.startswith("#") and not line.startswith("label,"):
                label, seed, m_star = line.split(",")
                rows[(label, int(seed))] = int(m_star)
    for outcome in outcomes:
        rows[(outcome["label"], outcome["seed"])] = outcome["m_star"]
    lines = ["# m* per threshold search, recorded at workload seed 0 with the",
             "# run length in BENCHMARK.json (run.py --record-table).",
             "label,seed,m_star"]
    lines += [f"{label},{seed},{m}" for (label, seed), m in sorted(rows.items())]
    path.write_text("\n".join(lines) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--table", type=Path, default=TABLE,
                        help="m* table to check against (default: %(default)s)")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: one search per sweep")
    parser.add_argument("--record-table", type=Path, default=None,
                        help="merge this run's m* values into the given table")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        build()
        deadline = time.monotonic() + RUN_DEADLINE_S
        driver_args = [f"--workload={args.workload}", f"--seed={args.seed}",
                       f"--seconds={args.seconds}", f"--table={args.table}"]
        if args.tiny:
            driver_args.append("--tiny")
        setup_samples = []
        for _ in range(0 if args.trace else SETUP_LAUNCHES):
            setup, start_ns = launch(driver_args + ["--setup-only"], deadline)
            setup_samples.append((setup["setup_end_ns"] - start_ns) * 1e-9)
        if args.trace:
            spans = BUILD_DIR / "traces" / f"{args.workload}.spans"
            spans.parent.mkdir(parents=True, exist_ok=True)
            driver_args += ["--trace", f"--spans={spans}"]
        result, _ = launch(driver_args, deadline)
    except BenchError as error:
        log(str(error))
        return 1

    attempted = result["attempted"]
    failed = result["failed"]
    if args.trace:
        metrics = result["per_layer"]
        correct = failed == 0 and result["mismatched_probes"] == 0
    else:
        result["setup_s"] = statistics.median(setup_samples)
        metrics = {name: metric(result[name], unit)
                   for name, unit in END_TO_END.items()}
        correct = failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "setup_samples_s": setup_samples,
        "provenance": {
            "commit": commit(),
            "source_sha256": source_digest(),
            "build_type": result["build"]["build_type"],
            "compiler": result["build"]["compiler"],
            "isa": result["build"]["isa"],
            "isa_source": result["build"]["isa_source"],
            "nproc": os.cpu_count(),
            "flag_line": " ".join(sys.argv[1:]),
            "driver_args": driver_args,
        },
        "workload_params": {
            "executor": result["executor"],
            "reps": result["reps"],
            "searches": result["searches_params"],
        },
        "outcomes": result["outcomes"],
    }
    for key in ("wall_total_s", "rep_wall_s", "rep_cpu_s",
                "probe_tail_percentile", "replayed_trials", "mismatched_probes",
                "untraced_wall_s", "traced_wall_s", "spans"):
        if key in result:
            record[key] = result[key]
    if args.record_table is not None:
        record_table(args.record_table, result["outcomes"])
    print(json.dumps({"perfbench_record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
