"""Tour output formats: numbered grid, structured text, and SVG.

Each formatter builds its text from string tables made once per call, not
cell by cell, so it needs every cell to lie on the board (see its docstring).
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Sequence

Cell = tuple[int, int]

# the exact shape format_structured writes: a header line of four ints one
# space apart, then `x y` lines of digits, each line ending in a newline
_SHAPE = re.compile(r"-?[0-9]+ -?[0-9]+ -?[0-9]+ -?[0-9]+\n(?:[0-9]+ [0-9]+\n)*")


def format_grid(cells: Sequence[Cell], width: int, height: int) -> str:
    """Board of visit numbers 1..n, row y printed top-down like a diagram.

    Every cell must lie on the board and each board cell must appear
    exactly once.  The visit numbers then fill a list indexed by
    x * height + y, so row y is the slice `order[y::height]`, printed by one
    `%`-template of right-aligned numbers.
    """
    digits = len(str(width * height))
    order = [0] * (width * height)
    for i, (x, y) in enumerate(cells, 1):
        order[x * height + y] = i
    row = " ".join([f"%{digits}d"] * width) + "\n"
    return "".join([row % tuple(order[y::height]) for y in range(height - 1, -1, -1)])


def format_structured(
    cells: Sequence[Cell], p: int, q: int, width: int, height: int
) -> str:
    """Header line `p q width height`, then one `x y` pair per tour step.

    Every cell must lie on the board: each line joins the string of its
    column with the string of its row.
    """
    xs = [f"{x} " for x in range(width)]
    ys = [f"{y}\n" for y in range(height)]
    return f"{p} {q} {width} {height}\n" + "".join([xs[x] + ys[y] for x, y in cells])


class _Ints(dict):
    """Memo of int(s) per token string, filled as tokens are met."""

    def __missing__(self, s: str) -> int:
        self[s] = n = int(s)
        return n


def parse_structured(text: str) -> tuple[int, int, int, int, list[Cell]]:
    """(p, q, width, height, cells) of a structured tour text.

    Text in the exact shape format_structured writes is read in whole-text
    passes: one linear fullmatch, one split, and one int() per distinct
    token string.  Any other text, e.g. with tabs, CRLF, a leading `+` or no
    final newline, goes through the per-line reader, which takes any
    whitespace between tokens and names the first bad line.
    """
    if _SHAPE.fullmatch(text):
        tokens = map(_Ints().__getitem__, text.split())
        p, q, width, height = islice(tokens, 4)
        return p, q, width, height, list(zip(tokens, tokens))
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty tour file")
    header = lines[0].split()
    if len(header) != 4:
        raise ValueError(f"bad header line {lines[0]!r}")
    p, q, width, height = map(int, header)
    cells = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad tour line {ln!r}")
        cells.append((int(parts[0]), int(parts[1])))
    return p, q, width, height, cells


def format_svg(cells: Sequence[Cell], width: int, height: int) -> str:
    """Closed polyline through cell centers at unit spacing, over a light grid.

    Every cell must lie on the board.  Each centre coordinate is then
    `k + 0.5` for an int 0 <= k < 2**52, a float that is exact and that
    prints as `f"{k}.5"`.  So the points join one string per column with
    one per row, and give the same bytes as formatting the floats.
    """
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width * 24}" height="{height * 24}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        '<g stroke="#ccc" stroke-width="0.02">',
    ]
    for x in range(width + 1):
        parts.append(f'<line x1="{x}" y1="0" x2="{x}" y2="{height}"/>')
    for y in range(height + 1):
        parts.append(f'<line x1="0" y1="{y}" x2="{width}" y2="{y}"/>')
    parts.append("</g>")
    # SVG y grows downward; board y grows upward.
    xs = [f"{x}.5," for x in range(width)]
    ys = [f"{height - 1 - y}.5" for y in range(height)]
    points = " ".join([xs[x] + ys[y] for x, y in cells])
    parts.append(
        f'<polygon points="{points}" fill="none" stroke="black" stroke-width="0.08" '
        'stroke-linejoin="round"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
