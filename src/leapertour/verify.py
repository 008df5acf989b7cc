"""Independent tour validation and a small brute-force search oracle.

Nothing here reuses the generator's graph construction; legality is
recomputed from (p, q) alone so the checks stay meaningful as an oracle.
A report checks central symmetry only when a caller reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import sub
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


def verify_tour(cells: Sequence[Cell], p: int, q: int, width: int, height: int) -> TourReport:
    """Check a cyclic cell sequence for being a closed Hamiltonian tour;
    p, q, width, height must be >= 1.

    Each cell becomes the int key x*S + y, with S = (max y - min y) +
    max(p, q) + 1.  Two cells' y values differ by less than S, so distinct
    cells get distinct keys.  A step (dx, dy) has key difference dx*S + dy
    and a move (mx, my) has key mx*S + my; these are equal iff
    (dx - mx)*S = my - dy, and |my - dy| <= max(p, q) + (max y - min y) < S,
    so only when the step is that move.  Each check is then one set or
    min/max operation over the keys, and a per-cell loop runs only after a
    check has failed, to name its first failure.
    """
    if min(p, q, width, height) < 1:
        raise ValueError(f"need p, q, width, height >= 1, got {p}, {q}, {width}, {height}")
    n = len(cells)
    report = TourReport(
        cell_count_ok=(n == width * height),
        all_moves_legal=True,
        all_cells_once=True,
        closed=False,
        cells=cells, width=width, height=height,
    )
    if not report.cell_count_ok:
        report.first_failure = f"{n} cells listed, board has {width * height}"
    if n == 0:
        return report

    ys = [y for _, y in cells]
    lo, hi = min(ys), max(ys)
    s = hi - lo + max(p, q) + 1
    keys = [x * s + y for x, y in cells]
    moves = {dx * s + dy for dx, dy in _move_vectors(p, q)}

    # 0 <= y - lo < S, so a key's x is (key - lo) // S
    on_board = 0 <= lo and hi < height and 0 <= min(keys) - lo and (max(keys) - lo) // s < width
    if len(set(keys)) < n or not on_board:
        report.all_cells_once = False
        seen: set[Cell] = set()
        for i, c in enumerate(cells):
            x, y = c
            if c in seen or not (0 <= x < width and 0 <= y < height):
                if report.first_failure is None:
                    report.first_failure = f"cell {c} at index {i} repeated or off board"
                break
            seen.add(c)

    if not set(map(sub, keys[1:], keys)) <= moves:
        report.all_moves_legal = False
        if report.first_failure is None:
            i = next(i for i in range(n - 1) if keys[i + 1] - keys[i] not in moves)
            report.first_failure = f"illegal move {cells[i]} -> {cells[i + 1]} at index {i}"

    # a single cell closes with the null move, which is never a leaper move
    report.closed = keys[0] - keys[-1] in moves
    if not report.closed and report.first_failure is None:
        report.first_failure = f"closing move {cells[-1]} -> {cells[0]} is illegal"
    return report


def verify_central_symmetry(cells: Sequence[Cell], width: int, height: int) -> bool:
    """True iff the tour's edge set maps to itself under the point reflection
    (x, y) -> (width-1-x, height-1-y).

    Exact for any cell list, on the board or not.  First, a list of even
    length n whose second half is the reflection of its first half, cell by
    cell, is symmetric: the reflected cyclic sequence is then the sequence
    turned by n/2, so it walks the same steps.  Every tour the generator
    writes takes this exit, however it is turned, restarted or reversed.
    The reflection maps its cycle onto itself, so it acts as a turn or a
    flip of the cycle; a flip fixes a cell or a step, and no turn is its own
    inverse but the identity, which fixes every cell, and the turn by n/2.
    An even board has no centre cell, and no step joins a cell to its
    mirror image: that step, (width-1-2x, height-1-2y), is odd in both
    coordinates, and a free leaper's move is even in one.  So the reflection
    is the turn by n/2.

    Otherwise each cell becomes the
    int key x*S + y, where S exceeds the spread of the y values of the
    cells and of their reflections; then no two of those cells share a
    key.  The reflection of key k is c - k with c = (width-1)*S + (height-1),
    and since it reverses order, an edge (a, b) with a <= b maps to
    (c - b, c - a).

    A reflected sequence that is a rotation of the sequence or of its
    reverse walks the same cyclic steps, so it proves symmetry with list
    compares alone.  On distinct cells a failed test means False, as two
    cycles through the same distinct cells share their edges only if one is
    a rotation of the other or of its reverse; a repeat needs the edge sets.
    """
    if not cells:
        return True
    n, half = len(cells), len(cells) // 2
    right, top = width - 1, height - 1
    if n % 2 == 0 and cells[half] == (right - cells[0][0], top - cells[0][1]):
        if [(right - x, top - y) for x, y in cells[:half]] == list(cells[half:]):
            return True
    ys = [y for _, y in cells]
    lo, hi = min(ys), max(ys)
    s = max(hi, top - lo) - min(lo, top - hi) + 1
    keys = [x * s + y for x, y in cells]
    c = right * s + top
    first, second = c - keys[0], c - keys[1 % n]
    if first in keys:
        # the reflection walks the sequence forward or backward from first;
        # second rules a direction out before the whole list is reflected
        i = keys.index(first)
        if keys[(i + 1) % n] == second and [c - k for k in keys] == keys[i:] + keys[:i]:
            return True
        if keys[i - 1] == second and [c - k for k in keys] == keys[i::-1] + keys[:i:-1]:
            return True
    if len(set(keys)) == n:
        return False
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
