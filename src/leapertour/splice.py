"""Turning pseudotours into Hamiltonian tours by rhombus flips.

A flip exchanges the chosen matching of a rhombus for the complementary
one.  When the two current matching edges lie on different cycles of the
two-factor, the flip splices those cycles into one; a single pass over all
rhombi therefore yields a single Hamiltonian cycle whenever the key graph
is connected.  A paired variant keeps the two-factor centrally symmetric
throughout and produces a centrally symmetric tour.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .geom import Cell, Edge, edge, reflect, reflect_cell
from .keygraph import (
    ConstructionError,
    KeyGraph,
    Rhombus,
    cycle_partition,
    halving_edges,
    is_connected_edges,
)


@dataclass(frozen=True)
class Tour:
    """A closed tour as a cyclic sequence of cells."""

    cells: tuple[Cell, ...]

    def edge_set(self) -> frozenset[Edge]:
        n = len(self.cells)
        return frozenset(
            edge(self.cells[i], self.cells[(i + 1) % n]) for i in range(n)
        )


class CycleTracker:
    """Disjoint sets over cells; two cells share a set iff they currently
    lie on the same cycle of the two-factor."""

    def __init__(self, cells):
        self.parent = {c: c for c in cells}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[ry] = rx
        return True


def current_matching(edges: set[Edge] | frozenset[Edge], r: Rhombus) -> int:
    """Which of the rhombus's two matchings the edge set contains."""
    in0 = [e in edges for e in r.matching(0)]
    in1 = [e in edges for e in r.matching(1)]
    if all(in0) and not any(in1):
        return 0
    if all(in1) and not any(in0):
        return 1
    raise ConstructionError(f"edge set holds a non-matching subset of rhombus {r.cells}")


def _flip_edges(edges: set[Edge], r: Rhombus) -> None:
    bit = current_matching(edges, r)
    edges.difference_update(r.matching(bit))
    edges.update(r.matching(1 - bit))


def random_bits(count: int, seed: int | None) -> list[int]:
    """Seeded per-rhombus halving bits; all zeros when no seed is given."""
    if seed is None:
        return [0] * count
    rng = random.Random(seed)
    return [rng.getrandbits(1) for _ in range(count)]


def splice(key: KeyGraph, bits: Sequence[int]) -> Tour:
    """Single fixed-order pass of cycle-merging flips over all rhombi."""
    edges = halving_edges(key, bits)
    side = key.leaper.side
    all_cells = [(x, y) for x in range(side) for y in range(side)]
    if not is_connected_edges(all_cells, key.edges):
        raise ConstructionError("key graph is not connected")

    tracker = CycleTracker(all_cells)
    for a, b in edges:
        tracker.union(a, b)

    for r in key.rhombi:
        bit = current_matching(edges, r)
        e1, e2 = r.matching(bit)
        if tracker.find(e1[0]) != tracker.find(e2[0]):
            edges.difference_update((e1, e2))
            new1, new2 = r.matching(1 - bit)
            edges.update((new1, new2))
            tracker.union(*new1)
            tracker.union(*new2)

    cycles = cycle_partition(edges)
    if len(cycles) != 1 or len(cycles[0]) != side * side:
        raise ConstructionError(f"splice left {len(cycles)} cycles")
    if not key.outer_edges <= edges:
        raise ConstructionError("splice dropped an outer edge")
    return Tour(cells=cycles[0])


def _central_cells(cells: Iterable[Cell], side: int) -> frozenset[Cell]:
    """The cells' images under the central reflection of the board."""
    return frozenset(reflect_cell(c, side, "center") for c in cells)


def _partners(key: KeyGraph) -> list[int]:
    """Index of each rhombus's central reflection among the key's rhombi."""
    side = key.leaper.side
    index = {r.cellset(): i for i, r in enumerate(key.rhombi)}
    return [index[_central_cells(r.cells, side)] for r in key.rhombi]


def symmetric_halving_bits(key: KeyGraph) -> list[int]:
    """Matching bits that make the halved two-factor centrally symmetric.

    Each rhombus and its central reflection receive mirrored matchings; the
    self-symmetric rhombi have two symmetric matchings each, so bit 0 works.
    """
    side = key.leaper.side
    bits: list[int | None] = [None] * len(key.rhombi)
    for i, (r, j) in enumerate(zip(key.rhombi, _partners(key))):
        if bits[i] is not None:
            continue
        bits[i] = 0
        mirrored = {reflect(e, side, "center") for e in r.matching(0)}
        partner = key.rhombi[j]
        if mirrored == set(partner.matching(0)):
            bits[j] = 0
        elif mirrored == set(partner.matching(1)):
            bits[j] = 1
        else:
            raise ConstructionError(f"reflection of rhombus {r.cells} is not a matching")
    return bits  # type: ignore[return-value]


def _find_center_rhombus(key: KeyGraph) -> Rhombus:
    """The unique forward rhombus fixed by the central reflection."""
    fixed = [
        r
        for i, (r, j) in enumerate(zip(key.rhombi, _partners(key)))
        if r.kind == "forward" and j == i
    ]
    if len(fixed) != 1:
        raise ConstructionError(f"expected one self-symmetric forward rhombus, got {len(fixed)}")
    return fixed[0]


def symmetric_splice(key: KeyGraph) -> Tour:
    """Grow a centrally symmetric cycle by paired rhombus flips until it
    spans the board."""
    side = key.leaper.side
    all_cells = [(x, y) for x in range(side) for y in range(side)]
    if not is_connected_edges(all_cells, key.edges):
        raise ConstructionError("key graph is not connected")

    edges = halving_edges(key, symmetric_halving_bits(key))
    for e in edges:
        if reflect(e, side, "center") == e:
            raise ConstructionError(f"edge {e} is its own central reflection")
        if reflect(e, side, "center") not in edges:
            raise ConstructionError("initial halving is not centrally symmetric")
    partners = _partners(key)

    def cycle_cells_through(cell: Cell) -> frozenset[Cell]:
        for cyc in cycle_partition(edges):
            if cell in cyc:
                return frozenset(cyc)
        raise ConstructionError(f"cell {cell} not on any cycle")

    r1 = _find_center_rhombus(key)
    anchor = r1.cells[0]
    e1, e2 = r1.matching(current_matching(edges, r1))
    if e2[0] not in cycle_cells_through(e1[0]):
        _flip_edges(edges, r1)
    grown = cycle_cells_through(anchor)

    while True:
        straddling = None
        for i, r in enumerate(key.rhombi):
            m1, m2 = r.matching(current_matching(edges, r))
            if (m1[0] in grown) != (m2[0] in grown):
                straddling = i
                break
        if straddling is None:
            break

        pending, rstar = key.rhombi[straddling], key.rhombi[partners[straddling]]
        if rstar is pending:
            raise ConstructionError("self-symmetric rhombus straddles the grown cycle")
        out_edge = next(e for e in pending.matching(current_matching(edges, pending)) if e[0] not in grown)
        out_star = reflect(out_edge, side, "center")
        if out_star not in rstar.matching(current_matching(edges, rstar)) or out_star[0] in grown:
            raise ConstructionError("partner rhombus does not mirror the pending one")

        if out_star[0] in cycle_cells_through(out_edge[0]):
            # both loose edges on one cycle: a triple flip merges it in
            _flip_edges(edges, r1)
            _flip_edges(edges, pending)
            _flip_edges(edges, rstar)
        else:
            _flip_edges(edges, pending)
            _flip_edges(edges, rstar)

        new_grown = cycle_cells_through(anchor)
        if len(new_grown) <= len(grown):
            raise ConstructionError("symmetric splice failed to grow the cycle")
        if new_grown != _central_cells(new_grown, side):
            raise ConstructionError("grown cycle lost central symmetry")
        grown = new_grown

    if len(grown) != side * side:
        raise ConstructionError(
            f"symmetric splice stalled with {len(grown)} of {side * side} cells"
        )
    cycles = cycle_partition(edges)
    if len(cycles) != 1:
        raise ConstructionError(f"symmetric splice left {len(cycles)} cycles")
    tour = Tour(cells=cycles[0])
    tour_edges = tour.edge_set()
    if reflect(tour_edges, side, "center") != tour_edges:
        raise ConstructionError("result tour is not centrally symmetric")
    return tour


def canonicalize(tour: Tour) -> Tour:
    """Rotate/reverse so the tour starts at its smallest cell and runs
    toward the smaller of that cell's two neighbours."""
    cells = list(tour.cells)
    i = cells.index(min(cells))
    rotated = cells[i:] + cells[:i]
    if rotated[-1] < rotated[1]:
        rotated = [rotated[0]] + rotated[:0:-1]
    return Tour(cells=tuple(rotated))
