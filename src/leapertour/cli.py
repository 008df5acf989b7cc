"""Command-line interface: generate, verify, fold, and sweep.

Exit codes: 0 success, 1 verification or construction failure, 2 usage error.

`main` runs each command with the cyclic garbage collector paused.  The
pipeline's data are ints, and tuples and lists of ints, held in records that
form no reference cycle, so reference counting frees every object a command
builds when it returns, and a collection during the command frees nothing.
tests/test_cli.py::test_commands_build_no_reference_cycles guards this.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from typing import Optional, Sequence

from . import fold, keygraph, render, splice, tile, verify
from .geom import Leaper, is_free

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
# generate, fold and sweep refuse a larger board before building anything; a
# 313,600-cell (2,5) tiling, 40x40 copies, peaks at 77 MB (ru_maxrss)
MAX_CELLS = 1_000_000


def _make_leaper(p: int, q: int) -> Leaper:
    try:
        return Leaper(p, q)
    except ValueError as exc:
        raise SystemExit2(str(exc))


def _board_size(side: int, k: int, l: int) -> tuple[int, int]:
    """Width and height of k x l copies of a board of the side, at most MAX_CELLS cells."""
    width, height = side * k, side * l
    if width * height > MAX_CELLS:
        raise SystemExit2(
            f"the {width}x{height} board has {width * height} cells, "
            f"above the limit of {MAX_CELLS}"
        )
    return width, height


class SystemExit2(Exception):
    """Usage error carrying a message for stderr."""


def _checked_tour(
    key: keygraph.KeyGraph, symmetric: bool, seed: Optional[int], k: int = 1, l: int = 1
) -> splice.Tour:
    """The key's tour, symmetric or from the seed's halving, tiled k x l; a
    tour the independent validator refuses raises ConstructionError."""
    if symmetric:
        tour = splice.symmetric_splice(key)
    else:
        tour = splice.splice(key, splice.random_bits(len(key.rhombus_ids), seed))
    if (k, l) != (1, 1):
        tour = tile.tile(key.leaper, k, l, tour)
    side = key.leaper.side
    report = verify.verify_tour(tour.cells, key.leaper.p, key.leaper.q, side * k, side * l)
    if not report.valid:
        raise keygraph.ConstructionError(f"self-verification failed: {report.first_failure}")
    if symmetric and not report.centrally_symmetric:
        raise keygraph.ConstructionError("self-verification failed: tour is not centrally symmetric")
    return tour


def cmd_generate(args: argparse.Namespace) -> int:
    leaper = _make_leaper(args.p, args.q)
    if args.tile_k < 1 or args.tile_l < 1:
        raise SystemExit2(
            f"need --tile-k and --tile-l >= 1, got {args.tile_k} and {args.tile_l}"
        )
    if args.symmetric and (args.tile_k, args.tile_l) != (1, 1):
        raise SystemExit2(
            f"--symmetric needs a 1x1 tiling, got {args.tile_k}x{args.tile_l}: "
            "a tiled tour is not centrally symmetric"
        )
    width, height = _board_size(leaper.side, args.tile_k, args.tile_l)
    # a valid tour lists each board cell once, as the formatters require
    tour = _checked_tour(keygraph.build_key(leaper), args.symmetric, args.seed, args.tile_k, args.tile_l)
    if args.format == "grid":
        text = render.format_grid(tour.cells, width, height)
    elif args.format == "svg":
        text = render.format_svg(tour.cells, width, height)
    else:
        text = render.format_structured(tour.cells, args.p, args.q, width, height)

    if args.output:
        try:
            with open(args.output, "w") as f:
                f.write(text)
        except OSError as exc:
            raise SystemExit2(f"cannot write output: {exc}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.path) as f:
            p, q, width, height, cells = render.parse_structured(f.read())
    except (OSError, ValueError) as exc:
        raise SystemExit2(f"cannot read tour file: {exc}")

    try:
        report = verify.verify_tour(cells, p, q, width, height)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    print(f"cell_count_ok={report.cell_count_ok}")
    print(f"all_moves_legal={report.all_moves_legal}")
    print(f"all_cells_once={report.all_cells_once}")
    print(f"closed={report.closed}")
    print(f"centrally_symmetric={report.centrally_symmetric}")
    if report.first_failure:
        print(f"first_failure: {report.first_failure}")
    ok = report.valid and (report.centrally_symmetric or not args.require_symmetry)
    print("VALID" if ok else "INVALID")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_fold(args: argparse.Namespace) -> int:
    leaper = _make_leaper(args.p, args.q)
    _board_size(leaper.side, 1, 1)
    report = fold.check_fold(leaper)
    pm = report.params
    em, en = pm.expected
    print(
        f"r={pm.r} m={pm.m} n={pm.n} h={pm.h} expect R({em},{en}): "
        f"{'MATCH' if report.matches else 'MISMATCH'}, O acyclic, "
        f"F {'connected' if report.folding_connected else 'DISCONNECTED'}"
    )
    if args.dump:
        for title, graph in (
            ("folding graph", report.folding),
            (f"crisscross R({em},{en})", report.crisscross),
        ):
            print(f"{title} edges:")
            for a, b in sorted(graph.edges):
                print(f"  {a[0]} {a[1]} {a[2]} - {b[0]} {b[1]} {b[2]}")
    return EXIT_OK if report.matches and report.folding_connected else EXIT_FAIL


def free_leapers(max_sum: int) -> list[tuple[int, int]]:
    """All free (p, q), p < q, with p + q <= max_sum, ordered by (p+q, p)."""
    return [
        (p, q)
        for s in range(3, max_sum + 1)
        for p in range(1, (s + 1) // 2)
        for q in [s - p]
        if is_free(p, q)
    ]


def _sweep_one(p: int, q: int) -> str:
    """The detail of the leaper's pass row; a failed check raises
    ConstructionError."""
    key = keygraph.build_key(Leaper(p, q))  # validates all degree/count invariants

    # a folding graph that matches R(m, n) answers for R(m, n)'s connectivity
    report = fold.check_fold(key)
    if not (report.matches and report.folding_connected):
        raise keygraph.ConstructionError(fold.locate_failure(report))
    _checked_tour(key, False, 0)
    _checked_tour(key, True, None)
    return f"side={key.leaper.side} rhombi={len(key.rhombus_ids)}"


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.max_sum < 3:
        raise SystemExit2(f"--max-sum must be at least 3, got {args.max_sum}")
    # refuse N by its largest board, of side 2N, before free_leapers lists every pair
    _board_size(2 * args.max_sum, 1, 1)
    failures = 0
    for p, q in free_leapers(args.max_sum):
        try:
            print(f"({p},{q}): pass  {_sweep_one(p, q)}")
        except keygraph.ConstructionError as exc:
            print(f"({p},{q}): FAIL  {exc}")
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="leapertour",
        description="Construct and verify closed (p,q)-leaper tours on 2(p+q) boards.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="construct a tour and write it out")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--symmetric", action="store_true", help="centrally symmetric tour")
    g.add_argument("--seed", type=int, default=None, help="seed for the initial halving")
    g.add_argument("--tile-k", type=int, default=1, help="horizontal subboard count")
    g.add_argument("--tile-l", type=int, default=1, help="vertical subboard count")
    g.add_argument("--format", choices=("tour", "grid", "svg"), default="tour")
    g.add_argument("--output", default=None, help="output path (default stdout)")
    g.set_defaults(func=cmd_generate)

    v = sub.add_parser("verify", help="check a structured tour file")
    v.add_argument("path")
    v.add_argument("--require-symmetry", action="store_true")
    v.set_defaults(func=cmd_verify)

    f = sub.add_parser("fold", help="report the folding/crisscross comparison")
    f.add_argument("--p", type=int, required=True)
    f.add_argument("--q", type=int, required=True)
    f.add_argument("--dump", action="store_true", help="print both edge lists")
    f.set_defaults(func=cmd_fold)

    s = sub.add_parser("sweep", help="run the full invariant suite per leaper")
    s.add_argument("--max-sum", type=int, required=True)
    s.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code.

    The command runs with the cyclic garbage collector paused (see the
    module docstring), which is switched back on only if it was on before.
    The pause starts after parse_args: the parser's first build leaves
    argparse's reference cycles, and its usage errors format help text.
    """
    args = build_parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except keygraph.ConstructionError as exc:
        # only generate and fold let one escape: sweep reports its own per leaper
        print(f"error: ({args.p},{args.q})-leaper: {exc}", file=sys.stderr)
        return EXIT_FAIL
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
