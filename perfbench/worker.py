"""The workload process: set up one workload, run its closed loop, report.

run.py starts this script once per set-up measurement.  It prints ``READY``
when it is ready for its first op; unless ``--setup-only`` is given it then
runs ops for ``--seconds`` seconds and prints one ``RESULT <json>`` line.

One client issues one op at a time and starts the next only when the last
has finished.  An op is one or two in-process calls of
``leapertour.cli.main(argv)``; its output is then checked outside the timed
interval (the output gate).  In the untraced run a fixed reference loop is
also timed before the first op and after each op, outside the ops' timed
intervals; the end-to-end metrics give op time in units of that loop's time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("base", "symmetric", "tiling", "check")
TAIL_BEYOND = 10  # ops that must lie beyond the tail percentile
DIGEST_OPS = 3  # outputs of the first ops that go into the digest
REF_SIDE = 40  # board side of the reference loop
REF_MOVES = tuple((sx * a, sy * b) for a, b in ((1, 2), (2, 1), (3, 4), (4, 3))
                  for sx in (1, -1) for sy in (1, -1))


def import_leapertour():
    """Import leapertour from this checkout's src/, never from elsewhere."""
    package = SRC / "leapertour"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no leapertour sources at {package}")
    sys.path.insert(0, str(SRC))
    import leapertour
    import leapertour.cli

    if Path(leapertour.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported leapertour from {leapertour.__file__}, not {package}")
    return leapertour


# ---- the output gate: independent readers of the three output formats ----

def parse_tour_text(text: str, p: int, q: int, width: int, height: int) -> list:
    lines = text.splitlines()
    if not lines or lines[0].split() != [str(p), str(q), str(width), str(height)]:
        raise ValueError(f"unexpected header {lines[:1]}")
    cells = []
    for line in lines[1:]:
        x, y = line.split()
        cells.append((int(x), int(y)))
    return cells


def parse_grid_text(text: str, width: int, height: int) -> list:
    rows = text.splitlines()
    if len(rows) != height:
        raise ValueError(f"{len(rows)} grid rows, expected {height}")
    cells: list = [None] * (width * height)
    for r, row in enumerate(rows):
        numbers = row.split()
        if len(numbers) != width:
            raise ValueError(f"grid row {r} has {len(numbers)} entries, expected {width}")
        for x, num in enumerate(numbers):
            i = int(num) - 1
            if not 0 <= i < len(cells) or cells[i] is not None:
                raise ValueError(f"visit number {num} out of range or repeated")
            cells[i] = (x, height - 1 - r)
    return cells


def parse_svg_text(text: str, width: int, height: int) -> list:
    match = re.search(r'<polygon points="([^"]*)"', text)
    if match is None:
        raise ValueError("no tour polygon in the SVG")
    cells = []
    for point in match.group(1).split():
        sx, sy = point.split(",")
        x, y = float(sx) - 0.5, height - 1 - (float(sy) - 0.5)
        if not (x.is_integer() and y.is_integer()):
            raise ValueError(f"polygon point {point} is not a cell center")
        cells.append((int(x), int(y)))
    return cells


def check_tour(lt, cells, p, q, width, height, symmetric: bool) -> Optional[str]:
    report = lt.verify.verify_tour(cells, p, q, width, height)
    if not report.valid:
        return f"tour rejected: {report.first_failure}"
    if symmetric and not report.centrally_symmetric:
        return "tour is not centrally symmetric"
    return None


# ---- workloads ----

@dataclass
class Op:
    """One op: the argv of each cli.main call, the board cells it covers,
    and its gate.  The gate takes the exit codes and captured stdout and
    returns (failure reason or None, the op's output bytes)."""

    calls: list
    cells: int
    gate: Callable
    ends_pass: bool = True
    output: Optional[Path] = None  # the file the op writes, removed before it runs


def generate_ops(lt, rng: Optional[random.Random], out: Path, p: int, q: int, fmt: str,
                 symmetric: bool = False, k: int = 1, l: int = 1) -> Iterator[Op]:
    side = 2 * (p + q)
    width, height = side * k, side * l
    readers = {
        "tour": lambda text: parse_tour_text(text, p, q, width, height),
        "grid": lambda text: parse_grid_text(text, width, height),
        "svg": lambda text: parse_svg_text(text, width, height),
    }

    def gate(codes, outs):
        data = out.read_bytes() if out.exists() else b""
        if codes != [0]:
            return f"exit code {codes}: {outs[0].strip()[:200]}", data
        try:
            cells = readers[fmt](data.decode())
        except ValueError as exc:
            return f"unreadable {fmt} output: {exc}", data
        return check_tour(lt, cells, p, q, width, height, symmetric), data

    argv = ["generate", "--p", str(p), "--q", str(q)]
    if symmetric:
        argv.append("--symmetric")
    if (k, l) != (1, 1):
        argv += ["--tile-k", str(k), "--tile-l", str(l)]
    argv += ["--format", fmt, "--output", str(out)]
    while True:
        seed = [] if rng is None else ["--seed", str(rng.randrange(2 ** 31))]
        yield Op(calls=[argv[:1] + seed + argv[1:]], cells=width * height, gate=gate, output=out)


def transformed_tour(lt, p: int, q: int, rng: random.Random) -> list:
    """A centrally symmetric tour the generator does not emit as such: the
    canonical symmetric tour turned by a random quarter-turn count, started
    at a random cell, and maybe reversed."""
    leaper = lt.geom.Leaper(p, q)
    side = leaper.side
    cells = list(lt.splice.canonicalize(lt.splice.symmetric_splice(lt.keygraph.build_key(leaper))).cells)
    for _ in range(rng.randrange(4)):
        cells = [(side - 1 - y, x) for x, y in cells]
    start = rng.randrange(len(cells))
    cells = cells[start:] + cells[:start]
    if rng.randrange(2):
        cells.reverse()
    return cells


def check_ops(lt, seed: int, workdir: Path) -> Iterator[Op]:
    rng = random.Random(seed)
    leapers = lt.cli.free_leapers(25)
    files = []
    for p, q in leapers:
        side = 2 * (p + q)
        path = workdir / f"check-{p}-{q}.tour"
        path.write_text(lt.render.format_structured(transformed_tour(lt, p, q, rng), p, q, side, side))
        files.append(path)

    def gate_for(p, q, path):
        side = 2 * (p + q)

        def gate(codes, outs):
            data = "".join(outs).encode()
            if codes != [0, 0]:
                return f"exit codes {codes}: {' | '.join(o.strip()[-200:] for o in outs)}", data
            if "MATCH, O acyclic, F connected" not in outs[0]:
                return f"fold report: {outs[0].strip()}", data
            if outs[1].split()[-1:] != ["VALID"] or "centrally_symmetric=True" not in outs[1]:
                return f"verify report: {outs[1].strip()[-200:]}", data
            try:
                cells = parse_tour_text(path.read_text(), p, q, side, side)
            except ValueError as exc:
                return f"unreadable tour file: {exc}", data
            return check_tour(lt, cells, p, q, side, side, symmetric=True), data

        return gate

    ops = [
        Op(
            calls=[["fold", "--p", str(p), "--q", str(q)], ["verify", str(path), "--require-symmetry"]],
            cells=(2 * (p + q)) ** 2,
            gate=gate_for(p, q, path),
            ends_pass=(i == len(leapers) - 1),
        )
        for i, ((p, q), path) in enumerate(zip(leapers, files))
    ]
    return itertools.cycle(ops)


def make_ops(lt, workload: str, seed: int, workdir: Path) -> Iterator[Op]:
    """Prepare a workload's inputs; the returned iterator yields its ops."""
    out = workdir / "op.out"
    if workload == "base":
        return generate_ops(lt, random.Random(seed), out, 12, 25, "tour")
    if workload == "symmetric":
        return generate_ops(lt, None, out, 10, 21, "svg", symmetric=True)
    if workload == "tiling":
        return generate_ops(lt, random.Random(seed), out, 2, 5, "grid", k=3, l=4)
    if workload == "check":
        return check_ops(lt, seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


# ---- the reference loop ----

def reference() -> int:
    """A fixed piece of work in the program's own style: build the move graph
    of a board as a dict of tuple cells, then search it breadth first.  It is
    part of the benchmark, so no change to the program changes its cost, and
    it slows down with the machine as the ops do."""
    n = REF_SIDE
    adj = {
        (x, y): [(x + dx, y + dy) for dx, dy in REF_MOVES if 0 <= x + dx < n and 0 <= y + dy < n]
        for x in range(n) for y in range(n)
    }
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        nxt = []
        for cell in frontier:
            for other in adj[cell]:
                if other not in seen:
                    seen.add(other)
                    nxt.append(other)
        frontier = nxt
    return len(seen)


def time_reference() -> float:
    start = perf_counter()
    if reference() != REF_SIDE * REF_SIDE:
        raise RuntimeError("reference loop did not reach every cell")
    return (perf_counter() - start) * 1e3


# ---- the closed loop ----

@dataclass
class Record:
    op_id: int
    ms: float
    cells: int
    failure: Optional[str]
    traced: bool
    out_bytes: int
    out_sha256: bytes  # only the hash is kept, so the records stay small
    ref_ms: Optional[float] = None  # mean reference time just before and after the op (untraced run)


def execute(lt, op: Op, op_id: int, tracer) -> Record:
    if op.output is not None:
        op.output.unlink(missing_ok=True)
    codes, outs, error = [], [], None
    if tracer is not None:
        tracer.install(op_id)
    start = perf_counter()
    try:
        for argv in op.calls:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                codes.append(lt.cli.main(argv))
            outs.append(buf.getvalue())
    except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    ms = (perf_counter() - start) * 1e3
    if tracer is not None:
        tracer.uninstall()
    failure, output = op.gate(codes, outs)
    return Record(op_id, ms, op.cells, error or failure, tracer is not None,
                  len(output), hashlib.sha256(output).digest())


def run_loop(lt, ops: Iterator[Op], seconds: float, tracer) -> list:
    """Run ops until `seconds` have passed and a pass is complete.

    In the untraced run the reference loop is timed before the first op and
    after each op, and each record gets the mean of the two timings around
    it.  In the traced run each op runs twice, untraced and traced, in
    alternating order, so the tracing overhead is measured on equal ops.
    """
    records = []
    deadline = perf_counter() + seconds
    before = time_reference() if tracer is None else None
    for i, op in enumerate(ops):
        if tracer is None:
            record = execute(lt, op, len(records), None)
            after = time_reference()
            record.ref_ms, before = (before + after) / 2, after
            records.append(record)
        else:
            for mode in (None, tracer) if i % 2 == 0 else (tracer, None):
                records.append(execute(lt, op, len(records), mode))
        if op.ends_pass and perf_counter() >= deadline:
            return records


def tail(values: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND values
    beyond it, or the maximum when there are too few values."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(records: list) -> dict:
    """Metrics of an untraced run.  An op's cost is its wall time divided by
    the reference time around it: the unit ``ref`` is one reference loop."""
    ms = [r.ms for r in records]
    cost = [r.ms / r.ref_ms for r in records]
    ok_cells = sum(r.cells for r in records if r.failure is None)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "op_cost.p50": statistics.median(cost),
        "op_cost.tail": tail(cost)[0],
        "cells_per_ref": ok_cells / sum(cost),
        "op_ms.p50": statistics.median(ms),
        "op_ms.tail": tail(ms)[0],
        "cells_per_s": ok_cells / (sum(ms) / 1e3),
        "ref_ms.p50": statistics.median(r.ref_ms for r in records),
        "ok_frac": sum(r.failure is None for r in records) / len(records),
        "peak_rss_mb": peak_kb / 1024,
    }


def per_layer(tracer, records: list) -> tuple:
    """(per-layer metrics, per-stage median/min) of the traced run."""
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    figures = spans.op_figures(tracer)
    ids = [r.op_id for r in traced]
    for r in traced:
        figures[r.op_id]["cli.bytes_out"] = r.out_bytes
    metrics = {
        name: statistics.median(spans.per_op_value(figures[i], name) for i in ids)
        for name in spans.PER_OP
    }
    metrics.update({f"{layer}.errors": tracer.errors[layer] for layer in spans.LAYERS})
    metrics["trace.overhead_frac"] = (
        statistics.median(r.ms for r in traced) / statistics.median(r.ms for r in untraced) - 1
    )
    metrics["trace.coverage_frac"] = sum(figures[i]["top_ms"] for i in ids) / sum(r.ms for r in traced)
    stages = spans.stage_stats(figures, ids)
    metrics.update(spans.scaling_probe(tracer))
    return metrics, stages


def write_trace(tracer, records: list, path: Path) -> None:
    """Spans as [name, start_ms, end_ms, parent, op, work] relative to the
    first span; ops as [op id, ms, traced, failure]."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    doc = {
        "span_fields": ["name", "start_ms", "end_ms", "parent", "op", "work"],
        "spans": [
            [name, (start - t0) * 1e3, (end - t0) * 1e3, parent, op, work]
            for name, start, end, parent, op, work in tracer.spans
        ],
        "op_fields": ["op", "ms", "traced", "failure"],
        "ops": [[r.op_id, r.ms, r.traced, r.failure] for r in records],
    }
    path.write_text(json.dumps(doc))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    lt = import_leapertour()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = make_ops(lt, args.workload, args.seed, workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0

        tracer = None
        if args.trace:
            tracer = spans.Tracer(lt)
        records = run_loop(lt, ops, args.seconds, tracer)
        failures = [r for r in records if r.failure is not None]
        digest = hashlib.sha256()
        for r in records[:DIGEST_OPS]:
            digest.update(r.out_sha256)
        result = {
            "attempted": len(records),
            "failed": len(failures),
            "failures": [f"op {r.op_id}: {r.failure}" for r in failures[:5]],
            "digest": digest.hexdigest(),
            "tail_percentile": tail([r.ms for r in records if not r.traced])[1],
        }
        if tracer is None:
            result["metrics"] = end_to_end(records)
            ms = [r.ms for r in records]
            result["stages"] = {"op": {"median_ms": statistics.median(ms), "min_ms": min(ms)}}
        else:
            result["metrics"], result["stages"] = per_layer(tracer, records)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            write_trace(tracer, records, trace_path)
            result["trace_file"] = str(trace_path.relative_to(ROOT))
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
