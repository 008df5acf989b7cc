"""Extending a base tour to boards tiled by 2(p+q)-sided subboards.

Copies of the base tour are placed in a checkerboard of translated and
90-degree-rotated orientations.  Side-adjacent copies always admit a
"switch": a pair of tour edges ab and cd (one per copy) such that bc and
da are also legal moves.  Flipping the switches along a spanning tree of
the subboard grid splices all copies into one Hamiltonian tour.  Since
every copy is the base tour or its rotation, the tree has only four seam
types.  A type's first seam cuts the copies' q-wide strips along it from
the cell orders of the base and its quarter turn, and searches them lazily
for switches as ids x * height + y at the origin; a never-advanced tee copy
buffers them for every later seam of that type, which adds its offset.  The
copies fill the board's neighbour arrays on those ids, each switch flips
them in place, and one walk proves the tour.  Failure messages name the
copies but not the leaper, which the caller names.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import tee
from typing import Iterable, Iterator

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


def rotate_edges_ccw(edges: Iterable[Edge], side: int) -> frozenset[Edge]:
    """Rotate 90 degrees counterclockwise about the subboard center."""
    return frozenset(edge((side - 1 - a[1], a[0]), (side - 1 - b[1], b[0])) for a, b in edges)


def translate_edges(edges: Iterable[Edge], dx: int, dy: int) -> frozenset[Edge]:
    return frozenset(
        edge((a[0] + dx, a[1] + dy), (b[0] + dx, b[1] + dy)) for a, b in edges
    )


def switch_candidates(
    edges_a: frozenset[Edge], edges_b: frozenset[Edge], leaper: Leaper
) -> Iterator[Switch]:
    """All switches between two placed copies, lazily, in a canonical scan
    order: by edge ab of copy A, then edge cd of copy B, then the
    orientations of ab and cd.

    B's edges are indexed by endpoint, so each end b of an A edge only looks
    at the B edges one move away.
    """
    moves = leaper.directions()
    at: dict[Cell, list[Edge]] = {}
    for eb in edges_b:
        at.setdefault(eb[0], []).append(eb)
        at.setdefault(eb[1], []).append(eb)

    for ea in sorted(edges_a):
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


def find_switch(
    edges_a: frozenset[Edge],
    edges_b: frozenset[Edge],
    leaper: Leaper,
    avoid: frozenset[Edge] = frozenset(),
) -> Switch:
    """First canonical switch none of whose edges ab, bc, cd and da is in avoid."""
    for sw in switch_candidates(edges_a, edges_b, leaper):
        if avoid.isdisjoint(map(edge, (sw.a, sw.b, sw.c, sw.d), (sw.b, sw.c, sw.d, sw.a))):
            return sw
    raise ConstructionError("no switch found between adjacent copies of the base tour")


def tile(leaper: Leaper, k: int, l: int, base: Tour) -> Tour:
    """Hamiltonian tour on the 2(p+q)k x 2(p+q)l board built from k*l
    checkerboarded copies of the base tour spliced along a comb tree, in
    cycle_partition's canonical order (a 1x1 tiling returns the base).

    Each switch merges two cycles, as the final walk confirms.  The comb
    tree's k*l - 1 edges join all copies, so it is acyclic, and a switch is its
    seam template shifted by (i*side, j*side): a lies in copy (i, j) and c in
    (i2, j2), on two trees so far, so on two cycles, which bc and da join.

    As bc and da are moves, a switch across a seam along x has a, b in the
    lower copy's strip x >= side - q and c, d in the upper's x < q, and
    likewise in y: the edges of that copy's cell order with both ends in it.
    switch_candidates keeps the order of the edges it is given, so the
    strips give whole copies' switches in the same order.

    A seam takes the first candidate with b still a neighbour of a, and d of
    c, which is the first none of whose edges an earlier switch used: its bc
    and da join the two copies of its own tree edge, which no other tree
    edge joins, and its ab and cd lie inside one copy each, as edges of that
    copy's orientation, so they were used only if cut, never to come back."""
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

    # a copy's cyclic ids, its orientation's at the origin plus an offset, give each its two neighbours
    height, q = l * side, leaper.q
    turns = (base.cells, [(side - 1 - y, x) for x, y in base.cells])  # the base and its ccw quarter turn
    orders = [[x * height + y for x, y in cells] for cells in turns]
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
    # tee copy of its switch search at the origin, as ids; offsets keep order.
    seams: dict[tuple[int, int, int], Iterator[tuple[int, ...]]] = {}
    for (i, j), (i2, j2) in tree:
        di, dj, parity = i2 - i, j2 - j, (i + j) % 2
        kind = (di, dj, parity)
        if kind not in seams:  # dj is the strips' axis: 0 (x) for a seam along x
            lower, upper = (
                frozenset(edge(u, v) for u, v in zip(cells[-1:] + cells, cells) if lo <= u[dj] < hi and lo <= v[dj] < hi)
                for cells, lo, hi in ((turns[parity], side - q, side), (turns[1 - parity], 0, q))
            )
            upper = translate_edges(upper, di * side, dj * side)
            seams[kind] = (
                tuple(x * height + y for x, y in (sw.a, sw.b, sw.c, sw.d))
                for sw in switch_candidates(lower, upper, leaper)
            )
        seams[kind], found = tee(seams[kind])
        offset = (i * height + j) * side
        for a, b, c, d in found:
            a, b, c, d = a + offset, b + offset, c + offset, d + offset
            if b in (first[a], second[a]) and d in (first[c], second[c]):
                break
        else:
            raise ConstructionError(f"no switch found between copies ({i}, {j}) and ({i2}, {j2}) of the base tour")
        flip(first, second, a, b, c, d, height)

    return Tour(one_cycle(first, second, height, f"{k}x{l} tiling of the base tour"))
