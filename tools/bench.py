"""Time each stage of the pipeline on a fixed ladder of leapers and tilings,
and write the medians, quartiles and minima to the next free BENCH_<n>.json.

Rungs: the leapers (12,25), (10,21), (1,40), (1,80) and (2,101), and the
(2,5) tour of seed 3 tiled 3x4, 10x10 and 40x40.  Stages, each timed on its
own inputs, built beforehand:
  - on a leaper: build_key, halve and splice of the seed-7 bits,
    symmetric_splice and check_fold of the key;
  - on a tiling: tile;
  - on both, for the rung's tour (the seed-7 splice, or the tiling):
    verify_tour, the three render formats, parse_structured of the
    structured text, cli.main generate end to end into a temporary file,
    and cli.main verify end to end of the structured text in a temporary
    file, its report printed into a buffer (after generate, so that
    generate still pays for building the parser, as in older files).
Each of the --repeat passes times every stage of every rung once, so the
samples of each stage span the whole run, with its slow and fast phases on
a shared machine.  Each rung of each pass runs in a fresh process, which
builds the rung's inputs and times its stages once, as `leapertour
generate` runs each stage once: in one long process a stage's time also
depends on what other rungs' stages allocated and freed before it (the
40x40 tiling's format_svg read 14-21% slower there once build_key stopped
freeing its edge set, with render unchanged).  Within a rung the stages
still follow its own build, as in generate, so on a leaper rung a change to
build_key can move the later stages' times by the way their inputs are laid
out in memory.  The cyclic garbage collector is paused, as cli.main pauses
it for a command.  For each stage, the log-log slope of its median time
against the cell count is taken between adjacent rungs and fitted over its
rungs; a stage whose fitted slope is above 1.2 is flagged, since cells *
log(cells) growth gives about 1.1 at these sizes.  The leaper stages work
per rhombus as well as per cell, and rhombi per cell (2(q-p)**2 / side**2)
are 0.06 at (12,25) and (10,21) but 0.45-0.48 at the other three, so
these stages are fitted over those three rungs of like density only.

The file records the Python version, the core count, the repeat count,
each rung's cells (and a leaper rung's rhombi), each stage's median, first
and third quartile and min in ms, the rungs the leaper stages are fitted
over, the slopes, the flagged stages and the run's wall time.  It uses the
stdlib only, and imports leapertour from the src/ next to this file.

Usage: python tools/bench.py [--repeat N] [--dir DIR]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from leapertour import cli, fold, keygraph, render, splice, tile, verify  # noqa: E402
from leapertour.geom import Leaper  # noqa: E402

LEAPERS = [(12, 25), (10, 21), (1, 40), (1, 80), (2, 101)]
TILINGS = [(3, 4), (10, 10), (40, 40)]
SLOPE_FLAG = 1.2
LEAPER_STAGES = ("build_key", "halve", "splice", "symmetric_splice", "check_fold")
LIKE_DENSITY = ["(1,40)", "(1,80)", "(2,101)"]  # the rungs the leaper stages are fitted over


def verify_cli(path: str) -> int:
    """cli.main verify of the file, its report printed into a buffer."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["verify", path])


def tour_stages(cells, p: int, q: int, width: int, height: int, argv: list[str], out: str):
    """The stages every rung times on its tour: verify, render, read back
    and generate.  The tour's structured text goes to a file beside out."""
    text = render.format_structured(cells, p, q, width, height)
    tour_file = os.path.join(os.path.dirname(out), "read.txt")
    Path(tour_file).write_text(text)
    return {
        "verify_tour": lambda: verify.verify_tour(cells, p, q, width, height),
        "format_structured": lambda: render.format_structured(cells, p, q, width, height),
        "format_grid": lambda: render.format_grid(cells, width, height),
        "format_svg": lambda: render.format_svg(cells, width, height),
        "parse_structured": lambda: render.parse_structured(text),
        "generate": lambda: cli.main(["generate", *argv, "--output", out]),
        "verify_cli": lambda: verify_cli(tour_file),
    }


def leaper_stages(p: int, q: int, out: str):
    """The rung's stages, and its counts: the key's rhombi."""
    leaper = Leaper(p, q)
    key = keygraph.build_key(leaper)
    bits = splice.random_bits(len(key.rhombus_ids), 7)
    tour = splice.splice(key, bits)
    stages = {
        "build_key": lambda: keygraph.build_key(leaper),
        "halve": lambda: keygraph.halve(key, bits),
        "splice": lambda: splice.splice(key, bits),
        "symmetric_splice": lambda: splice.symmetric_splice(key),
        "check_fold": lambda: fold.check_fold(key),
    }
    argv = ["--p", str(p), "--q", str(q), "--seed", "7"]
    counts = {"rhombi": len(key.rhombus_ids)}
    return stages | tour_stages(tour.cells, p, q, leaper.side, leaper.side, argv, out), counts


def tiling_stages(k: int, l: int, out: str):
    leaper = Leaper(2, 5)
    key = keygraph.build_key(leaper)
    base = splice.splice(key, splice.random_bits(len(key.rhombus_ids), 3))
    tour = tile.tile(leaper, k, l, base)
    argv = ["--p", "2", "--q", "5", "--seed", "3", "--tile-k", str(k), "--tile-l", str(l)]
    stages = {"tile": lambda: tile.tile(leaper, k, l, base)}
    return stages | tour_stages(tour.cells, 2, 5, k * leaper.side, l * leaper.side, argv, out), {}


def slopes(rungs: dict) -> dict[str, dict]:
    """Per stage: the log-log slope of median time against cells between
    adjacent rungs, in cell order, and the least-squares slope over them all,
    or, for a leaper stage, over the LIKE_DENSITY rungs only (None if fewer
    than two of them ran)."""
    points: dict[str, list[tuple[int, float, str]]] = {}
    for name, rung in rungs.items():
        for stage, t in rung["stages"].items():
            points.setdefault(stage, []).append((rung["cells"], t["median_ms"], name))
    out = {}
    for stage, pts in points.items():
        pts.sort()
        if len(pts) < 2 or pts[0][0] == pts[-1][0]:
            continue
        xs, ys = [math.log(c) for c, _, _ in pts], [math.log(t) for _, t, _ in pts]
        adjacent = [
            [pts[i][0], pts[i + 1][0], round((ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]), 3)]
            for i in range(len(pts) - 1)
            if xs[i + 1] > xs[i]
        ]
        like = [stage not in LEAPER_STAGES or name in LIKE_DENSITY for _, _, name in pts]
        fitted = [(x, y) for x, y, keep in zip(xs, ys, like) if keep]
        fit = None
        if len({x for x, _ in fitted}) > 1:
            fit = round(statistics.linear_regression(*zip(*fitted)).slope, 3)
        out[stage] = {"fit": fit, "adjacent": adjacent}
    return out


def spread(samples: list[float]) -> dict[str, float]:
    """A stage's median, quartiles and min in ms; one sample is all four."""
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median_ms": statistics.median(samples), "q1_ms": q1, "q3_ms": q3, "min_ms": min(samples)}


def next_free(directory: Path) -> Path:
    n = 1
    while (directory / f"BENCH_{n}.json").exists():
        n += 1
    return directory / f"BENCH_{n}.json"


def one_pass(kind: str, a: int, b: int) -> dict:
    """Build one rung, a leaper (a, b) or a (2,5) tiling a x b, and time
    each of its stages once, in ms, with the cyclic garbage collector paused
    as cli.main pauses it for a command: the times under "stages", beside
    the rung's counts."""
    gc.disable()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "tour.txt")
        stages, counts = leaper_stages(a, b, out) if kind == "leaper" else tiling_stages(a, b, out)
        times = {}
        for stage, call in stages.items():
            start = time.perf_counter()
            call()
            times[stage] = (time.perf_counter() - start) * 1e3
    return {**counts, "stages": times}


def run(leapers: list[tuple[int, int]], tilings: list[tuple[int, int]], repeat: int) -> dict:
    """Time the stages of these leaper rungs (p, q) and (2,5) tiling rungs
    (k, l) in `repeat` passes, each rung of a pass in its own process, and
    return the record BENCH_<n>.json holds."""
    began = time.perf_counter()
    ladder = [(f"({p},{q})", (2 * (p + q)) ** 2, ("leaper", p, q)) for p, q in leapers]
    ladder += [(f"(2,5) {k}x{l}", 196 * k * l, ("tiling", k, l)) for k, l in tilings]
    times: dict[str, dict[str, list[float]]] = {name: {} for name, _, _ in ladder}
    rungs = {name: {"cells": cells} for name, cells, _ in ladder}
    for _ in range(repeat):
        for name, _, rung in ladder:
            argv = [sys.executable, __file__, "--pass", *map(str, rung)]
            done = subprocess.run(argv, capture_output=True, text=True, check=True)
            record = json.loads(done.stdout.splitlines()[-1])
            for stage, ms in record.pop("stages").items():
                times[name].setdefault(stage, []).append(ms)
            rungs[name] |= record
    for name, rung in rungs.items():
        rung["stages"] = {s: spread(t) for s, t in times[name].items()}
        print(name, " ".join(f"{s}={t['min_ms']:.2f}" for s, t in rung["stages"].items()))

    fitted = slopes(rungs)
    flagged = sorted(s for s, v in fitted.items() if (v["fit"] or 0) > SLOPE_FLAG)
    for stage in flagged:
        print(f"FLAG: {stage} grows with slope {fitted[stage]['fit']} > {SLOPE_FLAG}")
    return {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "repeat": repeat,
        "rungs": rungs,
        "like_density": LIKE_DENSITY,
        "slopes": fitted,
        "flagged": flagged,
        "seconds": round(time.perf_counter() - began, 1),
    }


def main(argv: list[str] | None = None) -> Path | None:
    parser = argparse.ArgumentParser(description="Time every pipeline stage on a ladder of rungs.")
    parser.add_argument("--repeat", type=int, default=15, help="passes over the ladder: timed calls per stage and rung")
    parser.add_argument("--dir", type=Path, default=ROOT, help="where BENCH_<n>.json goes (default: the repo root)")
    parser.add_argument("--pass", dest="one", nargs=3, help=argparse.SUPPRESS)  # one rung, in the process run() starts
    args = parser.parse_args(argv)
    if args.one:
        kind, a, b = args.one
        print(json.dumps(one_pass(kind, int(a), int(b))))
        return None
    record = run(LEAPERS, TILINGS, args.repeat)
    path = next_free(args.dir)
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path} in {record['seconds']} s")
    return path


if __name__ == "__main__":
    main()
