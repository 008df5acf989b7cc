"""Board geometry: cells, leaper moves, subboards, reflections, and pencils.

Coordinates follow the lower-left-corner convention: the cell (x, y) is the
one whose lower left corner sits at the point (x, y), so a square board of
side n holds the cells (0, 0) through (n - 1, n - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Cell = tuple[int, int]
Direction = tuple[int, int]
# Edges are stored canonically with the lexicographically smaller cell first,
# so they behave as unordered pairs under set operations.
Edge = tuple[Cell, Cell]

REFLECTIONS = ("identity", "vertical", "center", "horizontal")


class PencilError(ValueError):
    """A pencil path left the board; carries the offending cell."""

    def __init__(self, cell: Cell, side: int):
        super().__init__(f"pencil path leaves the {side}x{side} board at {cell}")
        self.cell = cell


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
        g = math.gcd(self.q - self.p, self.q + self.p)
        if g != 1:
            raise ValueError(
                f"q - p and q + p are not relatively prime (common factor {g}); "
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

    def __contains__(self, cell: Cell) -> bool:
        x, y = cell
        return self.x1 <= x < self.x2 and self.y1 <= y < self.y2

    def cells(self) -> Iterator[Cell]:
        for x in range(self.x1, self.x2):
            for y in range(self.y1, self.y2):
                yield (x, y)


@dataclass(frozen=True)
class PencilSpec:
    """A move sequence swept over every cell of a base subboard."""

    base: Subboard
    dirs: tuple[Direction, ...]


def edge(a: Cell, b: Cell) -> Edge:
    """Canonical unordered edge."""
    return (a, b) if a <= b else (b, a)


def add(a: Cell, d: Direction) -> Cell:
    return (a[0] + d[0], a[1] + d[1])


def on_board(cell: Cell, side: int) -> bool:
    return 0 <= cell[0] < side and 0 <= cell[1] < side


def reflect_cell(cell: Cell, side: int, which: str) -> Cell:
    x, y = cell
    if which == "identity":
        return cell
    if which == "vertical":
        return (side - 1 - x, y)
    if which == "center":
        return (side - 1 - x, side - 1 - y)
    if which == "horizontal":
        return (x, side - 1 - y)
    raise ValueError(f"unknown reflection {which!r}")


def reflect(edges: Iterable[Edge], side: int, which: str) -> set[Edge]:
    """Reflect a set of Edges within a square board.

    The four reflections are the identity, reflection in the vertical axis
    x = side/2, the board center, and the horizontal axis y = side/2.
    """
    return {edge(reflect_cell(a, side, which), reflect_cell(b, side, which)) for a, b in edges}


def expand_pencil(spec: PencilSpec, side: int) -> list[tuple[Cell, ...]]:
    """One path per base cell; vertices are the prefix sums of the moves.

    Raises PencilError if any generated vertex falls off the board.
    """
    paths = []
    for a in spec.base.cells():
        if not on_board(a, side):
            raise PencilError(a, side)
        path = [a]
        for d in spec.dirs:
            nxt = add(path[-1], d)
            if not on_board(nxt, side):
                raise PencilError(nxt, side)
            path.append(nxt)
        paths.append(tuple(path))
    return paths


def path_edges(path: Sequence[Cell]) -> list[Edge]:
    return [edge(path[i], path[i + 1]) for i in range(len(path) - 1)]
