"""The factorspec benchmark: one workload per call, serial, checked.

    python3 bench/run.py --workload suite|mine-hong|check --seed N \
        --seconds S --trace 0|1

Run from the repository root.  It compiles the package's bytecode, measures
set-up in SETUP_PROBES fresh processes plus the workload process itself,
runs the workload in one process (no worker pool, one BLAS thread), checks
every output apart from the program (checks.py), and prints one JSON line:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("suite", "mine-hong", "check")
SETUP_PROBES = 6
# The highest percentile with at least ten requests beyond it in every run:
# each run has at least MIN_ROUNDS (workload.py) rounds of requests.
TAIL_PERCENTILE = {"suite": 90, "mine-hong": 90, "check": 80}
CHILD_TIMEOUT_S = 150
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = math.ceil(pct / 100 * len(ordered))
    if len(ordered) - rank < 10:
        raise ValueError(f"p{pct} of {len(ordered)} requests has fewer than ten beyond it")
    return ordered[rank - 1]


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["FACTORSPEC_WORKERS"] = "1"
    for name in ONE_THREAD:
        env[name] = "1"
    return env


def run_child(args, work: str, out: str, setup_only: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=child_env(), timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(out) as fh:
        return json.load(fh)


def end_to_end(workload: str, result: dict, setups: list[float], cases: int) -> dict:
    lat = result["latencies_s"]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "cases_per_s": {"value": cases / result["wall_s"], "unit": "1/s"},
        "request_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
        "request_tail_ms": {"value": 1e3 * nearest_rank(lat, TAIL_PERCENTILE[workload]),
                            "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


TRACE_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "examined": "count",
               "nodes": "count", "iterations": "count", "demands_tried": "count", "spans": "count",
               "overhead_s": "s", "round_s": "s", "us_per_examined": "us",
               "us_per_subset": "us"}


def per_layer(trace: dict) -> dict:
    return {name: {"value": value, "unit": TRACE_UNITS.get(name.rsplit(".", 1)[-1], "ratio")}
            for name, value in sorted(trace.items())}


def cases_of(record: dict) -> int:
    """Cases one run of a request completes: graph-grid points for suite and
    mine, graphs for verify hong, one for check and rho."""
    kind = record["request"]["kind"]
    if kind in ("decision", "rho"):
        return 1
    try:
        return json.loads(record["outputs"][0][1])["cases_run"]
    except (ValueError, KeyError):
        return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join("src", "factorspec")):
        print("error: run from the repository root (src/factorspec not found)", file=sys.stderr)
        return 2
    work = os.path.join(".bench_run", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # bytecode caches are present before any set-up is timed
    compileall.compile_dir("src", quiet=1)

    try:
        setups = [run_child(args, work, os.path.join(work, f"setup{i}.json"), True)["setup_s"]
                  for i in range(SETUP_PROBES)]
        result = run_child(args, work, os.path.join(work, "result.json"), False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    # the checker's imports come after the workload process has ended
    sys.path.insert(0, HERE)
    import checks

    records = result["records"]
    attempted, failed, correct, problems = checks.tally(records, checks.load_references())
    for line in problems:
        print(f"check: {line}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(result["trace"])
    else:
        cases = sum(cases_of(rec) * rec["runs"] for rec in records.values())
        metrics = end_to_end(args.workload, result, setups, cases)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
