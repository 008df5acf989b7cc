"""Extending a base tour to boards tiled by 2(p+q)-sided subboards.

Copies of the base tour are placed in a checkerboard of translated and
90-degree-rotated orientations.  Side-adjacent copies always admit a
"switch": a pair of tour edges ab and cd (one per copy) such that bc and
da are also legal moves.  Flipping the switches along a spanning tree of
the subboard grid splices all copies into one Hamiltonian tour.  Since
every copy is the base tour or its rotation, the tree has only four seam
types.  Each type's switches are searched for lazily, in the seam band only;
a never-advanced tee copy of the search buffers them for every later seam of
that type, translated.  The seam search runs on cells; the copies' cyclic
orders fill the board's neighbour arrays on ids x * height + y, each switch
flips them in place, and one walk proves the tour.  Failure messages name
the copies but not the leaper, which the caller names.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, tee
from typing import AbstractSet, Iterable, Iterator, Optional

from .geom import Cell, Edge, Leaper, edge
# perfbench/spans.py wraps tile.cycle_partition by name, so it stays bound here
from .keygraph import ConstructionError, cycle_partition, flip, one_cycle
from .splice import Tour


@dataclass(frozen=True)
class Switch:
    """Tour edges (a, b) and (c, d) whose crosswise pairs bc and da are
    legal leaper moves."""

    a: Cell
    b: Cell
    c: Cell
    d: Cell

    def old_edges(self) -> tuple[Edge, Edge]:
        return (edge(self.a, self.b), edge(self.c, self.d))

    def new_edges(self) -> tuple[Edge, Edge]:
        return (edge(self.b, self.c), edge(self.d, self.a))


def rotate_edges_ccw(edges: Iterable[Edge], side: int) -> frozenset[Edge]:
    """Rotate 90 degrees counterclockwise about the subboard center."""
    return frozenset(edge((side - 1 - a[1], a[0]), (side - 1 - b[1], b[0])) for a, b in edges)


def translate_edges(edges: Iterable[Edge], dx: int, dy: int) -> frozenset[Edge]:
    return frozenset(
        edge((a[0] + dx, a[1] + dy), (b[0] + dx, b[1] + dy)) for a, b in edges
    )


def _near(edges: Iterable[Edge], other: Iterable[Edge], reach: int) -> list[Edge]:
    """The edges with both ends within reach, per axis, of other's bounding box."""
    xs, ys = (range(min(v) - reach, max(v) + reach + 1) for v in zip(*chain.from_iterable(other)))
    return [(a, b) for a, b in edges if a[0] in xs and b[0] in xs and a[1] in ys and b[1] in ys]


def switch_candidates(
    edges_a: frozenset[Edge], edges_b: frozenset[Edge], leaper: Leaper
) -> Iterator[Switch]:
    """All switches between two placed copies, lazily, in a canonical scan
    order: by edge ab of copy A, then edge cd of copy B, then the
    orientations of ab and cd.

    Only the seam band is scanned: the edges of each copy with both ends
    within q, per axis, of the other copy's bounding box.  As bc and da are
    moves, every switch lies in the band, and dropping the other edges keeps
    the order of the rest.  The band's B edges are indexed by endpoint, so
    each end b of an A edge only looks at the B edges one move away.
    """
    moves = leaper.directions()
    at: dict[Cell, list[Edge]] = {}
    for eb in _near(edges_b, edges_a, leaper.q):
        at.setdefault(eb[0], []).append(eb)
        at.setdefault(eb[1], []).append(eb)

    for ea in sorted(_near(edges_a, edges_b, leaper.q)):
        hits = []
        for oa, (a, b) in enumerate((ea, (ea[1], ea[0]))):
            for mx, my in moves:
                c = (b[0] + mx, b[1] + my)
                for eb in at.get(c, ()):
                    ob = 0 if eb[0] == c else 1
                    d = eb[1 - ob]
                    if (a[0] - d[0], a[1] - d[1]) in moves:
                        hits.append(((eb, oa, ob), Switch(a, b, c, d)))
        hits.sort(key=lambda hit: hit[0])
        for _, sw in hits:
            yield sw


def _first_avoiding(candidates: Iterable[Switch], avoid: AbstractSet[Edge]) -> Optional[Switch]:
    for sw in candidates:
        if not any(e in avoid for e in sw.old_edges() + sw.new_edges()):
            return sw
    return None


def _shift(sw: Switch, dx: int, dy: int) -> Switch:
    return Switch(*((x + dx, y + dy) for x, y in (sw.a, sw.b, sw.c, sw.d)))


def find_switch(
    edges_a: frozenset[Edge],
    edges_b: frozenset[Edge],
    leaper: Leaper,
    avoid: frozenset[Edge] = frozenset(),
) -> Switch:
    """First canonical switch whose four edges avoid the given edge set."""
    sw = _first_avoiding(switch_candidates(edges_a, edges_b, leaper), avoid)
    if sw is None:
        raise ConstructionError("no switch found between adjacent copies of the base tour")
    return sw


def tile(leaper: Leaper, k: int, l: int, base: Tour) -> Tour:
    """Hamiltonian tour on the 2(p+q)k x 2(p+q)l board built from k*l
    checkerboarded copies of the base tour spliced along a comb tree, in
    cycle_partition's canonical order (a 1x1 tiling returns the base).

    Each switch merges two cycles, as the final walk confirms.  The comb
    tree's k*l - 1 edges join all copies, so it is acyclic, and a switch is its
    seam template shifted by (i*side, j*side): a lies in copy (i, j) and c in
    (i2, j2), on two trees so far, so on two cycles, which bc and da join."""
    if k < 1 or l < 1:
        raise ValueError(f"tile grid must be at least 1x1, got {k}x{l}")
    side = leaper.side
    if len(base.cells) != side * side:
        raise ValueError(f"base tour has {len(base.cells)} cells, expected {side * side}")
    seen = [False] * (side * side)  # the fill needs each cell once, or the final walk may never end
    for x, y in base.cells:
        if not (0 <= x < side and 0 <= y < side) or seen[x * side + y]:
            raise ValueError(f"base tour cell {(x, y)} is off the {side}x{side} board or repeated")
        seen[x * side + y] = True
    if k == 1 and l == 1:
        return base

    base_edges = base.edge_set()
    copies = (base_edges, rotate_edges_ccw(base_edges, side))

    # a copy's cyclic ids, its orientation's at the origin plus an offset, give each its two neighbours
    height = l * side
    rotated = [(side - 1 - y, x) for x, y in base.cells]
    orders = [[x * height + y for x, y in cells] for cells in (base.cells, rotated)]
    first, second = [0] * (k * height * side), [0] * (k * height * side)
    for i in range(k):
        for j in range(l):
            order = [c + (i * height + j) * side for c in orders[(i + j) % 2]]
            for c, prev, succ in zip(order, order[-1:] + order, order[1:] + order):
                first[c], second[c] = prev, succ

    # Comb spanning tree: every row left to right, rows joined in column 0.
    tree = [((i, j), (i + 1, j)) for j in range(l) for i in range(k - 1)]
    tree += [((0, j), (0, j + 1)) for j in range(l - 1)]

    # Seam templates: (di, dj, parity of the lower copy) -> a never-advanced
    # tee copy of its switch search at the origin; translating keeps order.
    seams: dict[tuple[int, int, int], Iterator[Switch]] = {}
    used: set[Edge] = set()
    for (i, j), (i2, j2) in tree:
        di, dj, parity = i2 - i, j2 - j, (i + j) % 2
        kind = (di, dj, parity)
        if kind not in seams:
            upper = translate_edges(copies[1 - parity], di * side, dj * side)
            seams[kind] = switch_candidates(copies[parity], upper, leaper)
        seams[kind], found = tee(seams[kind])
        sw = _first_avoiding((_shift(s, i * side, j * side) for s in found), used)
        if sw is None:
            raise ConstructionError(
                f"no switch found between copies ({i}, {j}) and ({i2}, {j2}) of the base tour"
            )
        flip(first, second, *(x * height + y for x, y in (sw.a, sw.b, sw.c, sw.d)), height)
        used.update(sw.old_edges() + sw.new_edges())

    return Tour(one_cycle(first, second, height, f"{k}x{l} tiling of the base tour"))
