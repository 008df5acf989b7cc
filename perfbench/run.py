"""Run one leapertour benchmark workload and print its metrics.

    python3 perfbench/run.py --workload base --seed 1 --seconds 20 --trace 0

Starts the workload process (worker.py), times it from launch until it is
ready for its first op (set-up), lets it run its closed loop for --seconds,
and with --trace 0 also times the set-up alone a few times before and after
the loop.  Prints a report line (provenance, failures, per-stage figures)
and then, as the last line, ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_MIN_RUNS = 3  # set-up samples per untraced run: at least this many ...
SETUP_RUNS = 15  # ... and at most this many ...
SETUP_BUDGET_S = 4.0  # ... while the samples so far took at most this long
TIMEOUT_S = 170

# The end-to-end metrics declared in BENCHMARK.json and printed on the last line.
# The op_cost metrics are op wall time in units of the reference loop timed
# around each op (see worker.reference), so they do not follow the slow and
# fast phases of a shared machine.
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_cost.p50": "ref",
    "op_cost.tail": "ref",
    "cells_per_ref": "cells/ref",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
# Also printed, in the REPORT line only: raw wall times move with the
# machine's phases by more than any allowed bound, and fail_frac is 0 on a
# healthy run, so none of them can be a declared metric.
REPORT_ONLY_UNITS = {
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "cells_per_s": "cells/s",
    "ref_ms.p50": "ms",
    "fail_frac": "ratio",
}


def launch(args, setup_only: bool, deadline: float) -> tuple:
    """Start one workload process; return (set-up seconds, RESULT or None)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"workload process failed (exit {proc.returncode})")
    if setup_only:
        return setup_s, None
    results = [line[len("RESULT "):] for line in out.splitlines() if line.startswith("RESULT ")]
    if len(results) != 1:
        raise RuntimeError("workload process printed no result")
    return setup_s, json.loads(results[0])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one leapertour benchmark workload.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long the closed loop runs (0: one op, or one pass on check)")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "leapertour" / "__init__.py").is_file():
        print(f"perfbench: no leapertour sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + TIMEOUT_S
    try:
        # About half the set-up samples are taken before the loop and half
        # after it, so that they fall in different speed phases of a shared
        # machine.
        setups = []
        while not args.trace and (
            not setups or (len(setups) < SETUP_RUNS // 2 and sum(setups) <= SETUP_BUDGET_S / 2)
        ):
            setups.append(launch(args, setup_only=True, deadline=deadline)[0])
        setup_s, result = launch(args, setup_only=False, deadline=deadline)
        setups.append(setup_s)
        while not args.trace and len(setups) < SETUP_RUNS and (
            len(setups) < SETUP_MIN_RUNS or sum(setups) <= SETUP_BUDGET_S
        ):
            setups.append(launch(args, setup_only=True, deadline=deadline)[0])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = result.pop("metrics")
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
        reported = units
    else:
        metrics["setup_s"] = statistics.median(setups)
        metrics["fail_frac"] = failed / attempted
        units = END_TO_END_UNITS
        reported = {**units, **REPORT_ONLY_UNITS}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "setup_samples_s": setups,
        **result,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in reported.items()},
    }
    print("REPORT " + json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
