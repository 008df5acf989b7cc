"""Board geometry: cells, leaper moves, subboards, the vertical reflection, and pencils.

It is the one home of is_free, the admissibility test of leapers and of
crisscross graphs, and of ConstructionError, the failure type of every
construction step, a pencil leaving the board included.

Coordinates follow the lower-left-corner convention: the cell (x, y) is the
one whose lower left corner sits at the point (x, y), so a square board of
side n holds the cells (0, 0) through (n - 1, n - 1).  Pencils and
reflect work on cell ids x * n + y, which divmod(i, n) turns back into
cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, product
from typing import Iterable, Iterator

Cell = tuple[int, int]
Direction = tuple[int, int]
# Edges are stored canonically with the lexicographically smaller cell first,
# so they behave as unordered pairs under set operations.
Edge = tuple[Cell, Cell]


class ConstructionError(RuntimeError):
    """An internal structural invariant failed during graph construction."""


class PencilError(ConstructionError):
    """A pencil path left the board; carries the offending cell."""

    def __init__(self, cell: Cell, side: int):
        super().__init__(f"pencil path leaves the {side}x{side} board at {cell}")
        self.cell = cell


def is_free(a: int, b: int) -> bool:
    """True iff gcd(b - a, b + a) = 1: a free (a, b)-leaper, or an admissible
    crisscross pair R(a, b)."""
    return math.gcd(b - a, b + a) == 1


@dataclass(frozen=True)
class Leaper:
    """A free (p, q)-leaper with p < q.

    Freeness requires gcd(q - p, q + p) = 1, which in particular forces
    p + q to be odd.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        if not 0 < self.p < self.q:
            raise ValueError(f"need 0 < p < q, got p={self.p}, q={self.q}")
        if not is_free(self.p, self.q):
            raise ValueError(
                "q - p and q + p are not relatively prime (common factor "
                f"{math.gcd(self.q - self.p, self.q + self.p)}); "
                f"the ({self.p},{self.q})-leaper is not free and admits no tour"
            )

    @property
    def side(self) -> int:
        """Side of the smallest square board this package works on."""
        return 2 * (self.p + self.q)

    def directions(self) -> frozenset[Direction]:
        """The eight move vectors (+-p, +-q) and (+-q, +-p)."""
        p, q = self.p, self.q
        return frozenset(
            (sx * a, sy * b)
            for a, b in ((p, q), (q, p))
            for sx in (1, -1)
            for sy in (1, -1)
        )


@dataclass(frozen=True)
class Subboard:
    """Half-open rectangle of cells: x1 <= x < x2 and y1 <= y < y2."""

    x1: int
    x2: int
    y1: int
    y2: int

    def __post_init__(self) -> None:
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValueError(f"degenerate subboard {self}")

    def cells(self) -> Iterator[Cell]:
        return product(range(self.x1, self.x2), range(self.y1, self.y2))


@dataclass(frozen=True)
class PencilSpec:
    """A move sequence swept over every cell of a base subboard."""

    base: Subboard
    dirs: tuple[Direction, ...]


def edge(a: Cell, b: Cell) -> Edge:
    """Canonical unordered edge."""
    return (a, b) if a <= b else (b, a)


def reflect(ids: Iterable[int], side: int) -> list[int]:
    """Reflect cell ids in the vertical axis x = side/2 of a square board,
    which takes the cell (x, y) to (side-1-x, y).

    The board's other two mirrors need no helper: the central reflection
    takes the id i to side**2 - 1 - i, and the horizontal one is the
    central reflection of the vertical one.
    """
    top = side * side - side  # the id of the cell (side - 1, 0)
    return [top - i + 2 * (i % side) for i in ids]  # (side-1-x) * side + y = top - i + 2y


def pencil_shifts(spec: PencilSpec, side: int) -> list[Direction]:
    """The offsets of a pencil's path vertices from their base cell: (0, 0)
    and the prefix sums of the moves.

    Every path shifts its base cell by the same offsets, so the pencil stays
    on the board iff each offset keeps the whole base rectangle on it.
    Raises PencilError naming the first vertex that falls off, walking the
    paths in order.
    """
    rect = spec.base
    shifts = list(accumulate(spec.dirs, lambda s, d: (s[0] + d[0], s[1] + d[1]), initial=(0, 0)))
    for sx, sy in shifts:
        if not (-rect.x1 <= sx <= side - rect.x2 and -rect.y1 <= sy <= side - rect.y2):
            for x, y in rect.cells():
                for dx, dy in shifts:
                    if not (0 <= x + dx < side and 0 <= y + dy < side):
                        raise PencilError((x + dx, y + dy), side)
    return shifts


def expand_pencil(spec: PencilSpec, side: int) -> list[tuple[int, ...]]:
    """One path per base cell, in cell order: the base cell plus each of its
    pencil_shifts, as cell ids x * side + y."""
    rect = spec.base
    starts = [x * side + y for x in range(rect.x1, rect.x2) for y in range(rect.y1, rect.y2)]
    return list(zip(*[[i + sx * side + sy for i in starts] for sx, sy in pencil_shifts(spec, side)]))
