"""Independent tour validation and a small brute-force search oracle.

Nothing here reuses the generator's graph construction; legality is
recomputed from (p, q) alone so the checks stay meaningful as an oracle.
A report checks central symmetry only when a caller reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

Cell = tuple[int, int]


@dataclass
class TourReport:
    cell_count_ok: bool
    all_moves_legal: bool
    all_cells_once: bool
    closed: bool
    cells: Sequence[Cell] = field(repr=False)
    width: int
    height: int
    first_failure: Optional[str] = None

    @property
    def valid(self) -> bool:
        return (
            self.cell_count_ok
            and self.all_moves_legal
            and self.all_cells_once
            and self.closed
        )

    @cached_property
    def centrally_symmetric(self) -> bool:
        """True iff the tour is valid and centrally symmetric; checked on first read."""
        return self.valid and verify_central_symmetry(self.cells, self.width, self.height)


def _move_vectors(p: int, q: int) -> set[tuple[int, int]]:
    return {
        (sx * a, sy * b)
        for a, b in ((p, q), (q, p))
        for sx in (1, -1)
        for sy in (1, -1)
    }


def is_free(p: int, q: int) -> bool:
    """True iff the (p, q)-leaper can reach every cell of a large board."""
    if p < 1 or q < 1:
        raise ValueError(f"need positive p and q, got ({p}, {q})")
    return math.gcd(q - p, q + p) == 1


def verify_tour(cells: Sequence[Cell], p: int, q: int, width: int, height: int) -> TourReport:
    """Check a cyclic cell sequence for being a closed Hamiltonian tour;
    p, q, width, height must be >= 1."""
    if min(p, q, width, height) < 1:
        raise ValueError(f"need p, q, width, height >= 1, got {p}, {q}, {width}, {height}")
    moves = _move_vectors(p, q)
    n = len(cells)
    report = TourReport(
        cell_count_ok=(n == width * height),
        all_moves_legal=True,
        all_cells_once=True,
        closed=(n > 0),
        cells=cells, width=width, height=height,
    )
    if not report.cell_count_ok and report.first_failure is None:
        report.first_failure = f"{n} cells listed, board has {width * height}"

    seen: set[Cell] = set()
    for i, c in enumerate(cells):
        x, y = c
        if c in seen or not (0 <= x < width and 0 <= y < height):
            report.all_cells_once = False
            if report.first_failure is None:
                report.first_failure = f"cell {c} at index {i} repeated or off board"
            break
        seen.add(c)

    for i in range(n - 1):
        a, b = cells[i], cells[i + 1]
        if (b[0] - a[0], b[1] - a[1]) not in moves:
            report.all_moves_legal = False
            if report.first_failure is None:
                report.first_failure = f"illegal move {a} -> {b} at index {i}"
            break

    # a single cell closes with the null move, which is never a leaper move
    if n > 0:
        a, b = cells[-1], cells[0]
        if (b[0] - a[0], b[1] - a[1]) not in moves:
            report.closed = False
            if report.first_failure is None:
                report.first_failure = f"closing move {a} -> {b} is illegal"
    return report


def verify_central_symmetry(cells: Sequence[Cell], width: int, height: int) -> bool:
    """True iff the tour's edge set maps to itself under the point reflection
    (x, y) -> (width-1-x, height-1-y).

    Exact for any cell list, on the board or not.  Each cell becomes the
    int key x*S + y, where S exceeds the spread of the y values of the
    cells and of their reflections; then no two of those cells share a
    key.  The reflection of key k is c - k with c = (width-1)*S + (height-1),
    and since it reverses order, an edge (a, b) with a <= b maps to
    (c - b, c - a).
    """
    if not cells:
        return True
    ys = [y for _, y in cells]
    lo, hi = min(ys), max(ys)
    s = max(hi, height - 1 - lo) - min(lo, height - 1 - hi) + 1
    keys = [x * s + y for x, y in cells]
    c = (width - 1) * s + (height - 1)
    edges = {(a, b) if a < b else (b, a) for a, b in zip(keys, keys[1:] + keys[:1])}
    # the reflection is one-to-one, so mapping into the set means onto it
    return all((c - b, c - a) in edges for a, b in edges)


def oracle_tour_search(
    p: int, q: int, width: int, height: int, budget: int = 2_000_000
) -> Optional[list[Cell]]:
    """Backtracking search for a closed tour, fewest-onward-moves first.

    Returns None when the budget runs out or a parity argument rules a
    closed tour out; None never claims nonexistence by itself.
    """
    total = width * height
    if total > 64:
        raise ValueError(f"{width}x{height} board too large for the oracle")

    # Bipartite parity: every move flips the cell colour when p + q is odd,
    # so a closed tour needs equally many cells of each colour.
    if (p + q) % 2 == 1:
        dark = sum((x + y) % 2 for x in range(width) for y in range(height))
        if dark * 2 != total:
            return None

    moves = sorted(_move_vectors(p, q))
    neighbors: dict[Cell, list[Cell]] = {}
    for x in range(width):
        for y in range(height):
            neighbors[(x, y)] = [
                (x + dx, y + dy)
                for dx, dy in moves
                if 0 <= x + dx < width and 0 <= y + dy < height
            ]

    start = (0, 0)
    path = [start]
    visited = {start}
    nodes = 0

    def extend() -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            return False
        cur = path[-1]
        if len(path) == total:
            return start in neighbors[cur]
        # the closing move needs an unvisited neighbour of the start
        if all(c in visited for c in neighbors[start]):
            return False
        options = [c for c in neighbors[cur] if c not in visited]
        options.sort(key=lambda c: (sum(n not in visited for n in neighbors[c]), c))
        for c in options:
            path.append(c)
            visited.add(c)
            if extend():
                return True
            path.pop()
            visited.remove(c)
        return False

    if extend():
        return path
    return None
