"""Tour output formats: numbered grid, structured text, and SVG."""

from __future__ import annotations

from typing import Sequence

Cell = tuple[int, int]


def format_grid(cells: Sequence[Cell], width: int, height: int) -> str:
    """Board of visit numbers 1..n, row y printed top-down like a diagram."""
    number = {c: i + 1 for i, c in enumerate(cells)}
    digits = len(str(width * height))
    rows = []
    for y in range(height - 1, -1, -1):
        rows.append(" ".join(f"{number[(x, y)]:>{digits}}" for x in range(width)))
    return "\n".join(rows) + "\n"


def format_structured(
    cells: Sequence[Cell], p: int, q: int, width: int, height: int
) -> str:
    """Header line `p q width height`, then one `x y` pair per tour step."""
    lines = [f"{p} {q} {width} {height}"]
    lines.extend(f"{x} {y}" for x, y in cells)
    return "\n".join(lines) + "\n"


def parse_structured(text: str) -> tuple[int, int, int, int, list[Cell]]:
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
