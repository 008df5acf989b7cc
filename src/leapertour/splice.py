"""Turning pseudotours into Hamiltonian tours by rhombus flips.

A pseudotour is one matching bit per rhombus, and a flip toggles a
rhombus's bit; when the two current matching edges lie on different
cycles, the flip merges them.  Both splices share one engine over a list of
bits: a CycleTracker labels the halving's cycles once, each merge flip
records its merge there, and at the end the edge set the bits pick is built
once and one cycle partition checks for a single tour.  The plain splice
makes one pass of merge flips over all rhombi; the symmetric one grows a
cycle by mirrored pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .geom import Cell, Edge, edge, reflect, reflect_cell
from .keygraph import (
    ConstructionError,
    KeyGraph,
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


def random_bits(count: int, seed: int | None) -> list[int]:
    """Seeded per-rhombus halving bits; all zeros when no seed is given."""
    if seed is None:
        return [0] * count
    rng = random.Random(seed)
    return [rng.getrandbits(1) for _ in range(count)]


def _tracked_halving(key: KeyGraph, bits: Sequence[int]) -> tuple[list[int], CycleTracker]:
    """A copy of the bits and a tracker of the cycles of the halving they pick."""
    side = key.leaper.side
    all_cells = [(x, y) for x in range(side) for y in range(side)]
    if not is_connected_edges(all_cells, key.edges):
        raise ConstructionError("key graph is not connected")
    tracker = CycleTracker(all_cells)
    for a, b in halving_edges(key, bits):
        tracker.union(a, b)
    return list(bits), tracker


def _merge_flip(key: KeyGraph, bits: list[int], tracker: CycleTracker, i: int) -> bool:
    """Flip rhombus i iff its matching edges lie on different cycles,
    recording the merge of those cycles; True iff it flipped."""
    e1, e2 = key.rhombi[i].matching(bits[i])
    merged = tracker.union(e1[0], e2[0])
    if merged:
        bits[i] ^= 1
    return merged


def _single_tour(key: KeyGraph, bits: Sequence[int], what: str) -> Tour:
    """The tour the bits' halving forms, checked to be one cycle over the
    whole board that keeps every outer edge."""
    edges = halving_edges(key, bits)
    cycles = cycle_partition(edges)
    if len(cycles) != 1 or len(cycles[0]) != key.leaper.side ** 2:
        raise ConstructionError(f"{what} left {len(cycles)} cycles")
    if not key.outer_edges <= edges:
        raise ConstructionError(f"{what} dropped an outer edge")
    return Tour(cells=cycles[0])


def splice(key: KeyGraph, bits: Sequence[int]) -> Tour:
    """Single fixed-order pass of cycle-merging flips over all rhombi."""
    bits, tracker = _tracked_halving(key, bits)
    for i in range(len(key.rhombi)):
        _merge_flip(key, bits, tracker, i)
    return _single_tour(key, bits, "splice")


def _partners(key: KeyGraph) -> list[int]:
    """Index of each rhombus's central reflection among the key's rhombi."""
    side = key.leaper.side
    index = {r.cellset(): i for i, r in enumerate(key.rhombi)}
    return [index[frozenset(reflect_cell(c, side, "center") for c in r.cells)] for r in key.rhombi]


def symmetric_halving_bits(key: KeyGraph) -> list[int]:
    """Matching bits that make the halved two-factor centrally symmetric:
    all zeros, checked by reflecting each edge of that halving once.

    The central reflection negates every move, and each rhombus pencil's
    move sequence, negated, is the same sequence shifted by two.  So the
    reflection of a rhombus a, b, c, d is its partner with cells in pencil
    order c*, d*, a*, b*, and matching 0 ({ab, cd}) maps onto the partner's
    matching 0.  The outer graph is a union of reflections, so it is
    symmetric too.
    """
    side = key.leaper.side
    bits = [0] * len(key.rhombi)
    edges = halving_edges(key, bits)
    for e in edges:
        mirrored = reflect(e, side, "center")
        if mirrored == e:
            raise ConstructionError(f"edge {e} is its own central reflection")
        if mirrored not in edges:
            raise ConstructionError("initial halving is not centrally symmetric")
    return bits


def _find_center_rhombus(key: KeyGraph, partners: Sequence[int]) -> int:
    """Index of the unique forward rhombus fixed by the central reflection."""
    fixed = [i for i, j in enumerate(partners) if j == i and key.rhombi[i].kind == "forward"]
    if len(fixed) != 1:
        raise ConstructionError(f"expected one self-symmetric forward rhombus, got {len(fixed)}")
    return fixed[0]


def symmetric_splice(key: KeyGraph) -> Tour:
    """Grow a centrally symmetric cycle by paired rhombus flips until it
    spans the board."""
    side = key.leaper.side
    partners = _partners(key)
    bits, tracker = _tracked_halving(key, symmetric_halving_bits(key))

    # the grown cycle holds all of r1, so it holds the anchor's mirror image,
    # and it stays centrally symmetric as long as the halving does
    i1 = _find_center_rhombus(key, partners)
    anchor = key.rhombi[i1].cells[0]
    _merge_flip(key, bits, tracker, i1)

    while True:
        grown = tracker.find(anchor)
        for i, pending in enumerate(key.rhombi):
            m1, m2 = pending.matching(bits[i])
            if (tracker.find(m1[0]) == grown) != (tracker.find(m2[0]) == grown):
                break
        else:
            break

        j = partners[i]
        if j == i:
            raise ConstructionError("self-symmetric rhombus straddles the grown cycle")
        out_edge = m2 if tracker.find(m1[0]) == grown else m1
        out_star = reflect(out_edge, side, "center")
        absorbed, star_cycle = tracker.find(out_edge[0]), tracker.find(out_star[0])
        if out_star not in key.rhombi[j].matching(bits[j]) or star_cycle == grown:
            raise ConstructionError("partner rhombus does not mirror the pending one")

        if star_cycle == absorbed:
            # both loose edges on one cycle: a triple flip merges it in
            for k in (i1, i, j):
                bits[k] ^= 1
            merged = {c for c in tracker.parent if tracker.find(c) in (grown, absorbed)}
            cycles = cycle_partition(halving_edges(key, bits))
            if set(next(c for c in cycles if anchor in c)) != merged:
                raise ConstructionError("symmetric splice failed to grow the cycle")
            tracker.union(anchor, out_edge[0])
        elif not (_merge_flip(key, bits, tracker, i) and _merge_flip(key, bits, tracker, j)):
            raise ConstructionError("symmetric splice failed to grow the cycle")
        if bits[i] != bits[j]:
            raise ConstructionError("grown cycle lost central symmetry")

    tour = _single_tour(key, bits, "symmetric splice")
    edges = tour.edge_set()
    if reflect(edges, side, "center") != edges:
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
