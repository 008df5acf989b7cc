"""Command-line interface: generate, verify, fold, and sweep.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import fold, keygraph, render, splice, tile, verify
from .geom import Leaper

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _make_leaper(p: int, q: int) -> Leaper:
    try:
        return Leaper(p, q)
    except ValueError as exc:
        raise SystemExit2(str(exc))


class SystemExit2(Exception):
    """Usage error carrying a message for stderr."""


def _generate_tour(leaper: Leaper, symmetric: bool, seed: Optional[int]) -> splice.Tour:
    key = keygraph.build_key(leaper)
    if symmetric:
        tour = splice.symmetric_splice(key)
    else:
        bits = splice.random_bits(len(key.rhombi), seed)
        tour = splice.splice(key, bits)
    return splice.canonicalize(tour)


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
    tour = _generate_tour(leaper, args.symmetric, args.seed)
    width = height = leaper.side
    if (args.tile_k, args.tile_l) != (1, 1):
        tour = splice.canonicalize(tile.tile(leaper, args.tile_k, args.tile_l, tour))
        width, height = leaper.side * args.tile_k, leaper.side * args.tile_l

    report = verify.verify_tour(tour.cells, args.p, args.q, width, height)
    if not report.valid:
        print(f"self-verification failed: {report.first_failure}", file=sys.stderr)
        return EXIT_FAIL
    if args.symmetric and not report.centrally_symmetric:
        print("self-verification failed: tour is not centrally symmetric", file=sys.stderr)
        return EXIT_FAIL

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

    p = args.p if args.p is not None else p
    q = args.q if args.q is not None else q
    width = args.width if args.width is not None else width
    height = args.height if args.height is not None else height

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
    report = fold.check_fold(leaper)
    pm = report.params
    em, en = pm.expected
    print(
        f"r={pm.r} m={pm.m} n={pm.n} h={pm.h} expect R({em},{en}): "
        f"{'MATCH' if report.matches else 'MISMATCH'}, "
        f"O {'acyclic' if report.outer_acyclic else 'CYCLIC'}, "
        f"F {'connected' if report.folding_connected else 'DISCONNECTED'}"
    )
    if args.dump and report.folding is not None:
        for title, graph in (
            ("folding graph", report.folding),
            (f"crisscross R({em},{en})", report.crisscross),
        ):
            print(f"{title} edges:")
            for a, b in sorted(graph.edges):
                print(f"  {a[0]} {a[1]} {a[2]} - {b[0]} {b[1]} {b[2]}")
    ok = report.matches and report.outer_acyclic and report.folding_connected
    return EXIT_OK if ok else EXIT_FAIL


def free_leapers(max_sum: int) -> list[tuple[int, int]]:
    """All free (p, q), p < q, with p + q <= max_sum, ordered by (p+q, p)."""
    pairs = [
        (p, q)
        for s in range(3, max_sum + 1)
        for p in range(1, (s + 1) // 2)
        for q in [s - p]
        if verify.is_free(p, q)
    ]
    return sorted(pairs, key=lambda pq: (pq[0] + pq[1], pq[0]))


def _sweep_one(p: int, q: int, seed: int) -> tuple[bool, str]:
    leaper = Leaper(p, q)
    side = leaper.side
    key = keygraph.build_key(leaper)  # validates all degree/count invariants

    bits = splice.random_bits(len(key.rhombi), seed)
    keygraph.halve(key, bits)

    report = fold.check_fold(leaper)
    if not (report.matches and report.outer_acyclic and report.folding_connected):
        return False, "fold check failed"
    if not fold.is_connected(report.crisscross):
        return False, "crisscross graph disconnected"

    tour = splice.splice(key, bits)
    if not verify.verify_tour(tour.cells, p, q, side, side).valid:
        return False, "plain tour invalid"
    stour = splice.symmetric_splice(key)
    sreport = verify.verify_tour(stour.cells, p, q, side, side)
    if not (sreport.valid and sreport.centrally_symmetric):
        return False, "symmetric tour invalid"
    return True, f"side={side} rhombi={len(key.rhombi)}"


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.max_sum < 3:
        raise SystemExit2(f"--max-sum must be at least 3, got {args.max_sum}")
    failures = 0
    for p, q in free_leapers(args.max_sum):
        ok, detail = _sweep_one(p, q, args.seed)
        print(f"({p},{q}): {'pass' if ok else 'FAIL'}  {detail}")
        failures += not ok
    return EXIT_OK if failures == 0 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
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
    v.add_argument("--p", type=int, default=None)
    v.add_argument("--q", type=int, default=None)
    v.add_argument("--width", type=int, default=None)
    v.add_argument("--height", type=int, default=None)
    v.add_argument("--require-symmetry", action="store_true")
    v.set_defaults(func=cmd_verify)

    f = sub.add_parser("fold", help="report the folding/crisscross comparison")
    f.add_argument("--p", type=int, required=True)
    f.add_argument("--q", type=int, required=True)
    f.add_argument("--dump", action="store_true", help="print both edge lists")
    f.set_defaults(func=cmd_fold)

    s = sub.add_parser("sweep", help="run the full invariant suite per leaper")
    s.add_argument("--max-sum", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
