"""Turning pseudotours into Hamiltonian tours by rhombus flips.

A flip exchanges a rhombus's matching for the complementary one; when the
two current matching edges lie on different cycles, it merges them.  Both
splices share one engine: a CycleTracker labels the halving's cycles once,
each merge flip records its merge there, and one cycle partition at the
end checks for a single tour.  The plain splice makes one pass of merge
flips over all rhombi; the symmetric one grows a cycle by mirrored pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

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


def _tracked_halving(key: KeyGraph, bits: Sequence[int]) -> tuple[set[Edge], CycleTracker]:
    """The halving's edge set and a tracker of its cycles."""
    side = key.leaper.side
    all_cells = [(x, y) for x in range(side) for y in range(side)]
    if not is_connected_edges(all_cells, key.edges):
        raise ConstructionError("key graph is not connected")
    edges = halving_edges(key, bits)
    tracker = CycleTracker(all_cells)
    for a, b in edges:
        tracker.union(a, b)
    return edges, tracker


def _merge_flip(edges: set[Edge], tracker: CycleTracker, r: Rhombus) -> bool:
    """Flip the rhombus iff its matching edges lie on different cycles,
    recording the merge of those cycles; True iff it flipped."""
    e1, e2 = r.matching(current_matching(edges, r))
    merged = tracker.union(e1[0], e2[0])
    if merged:
        _flip_edges(edges, r)
    return merged


def _single_tour(key: KeyGraph, edges: set[Edge], what: str) -> Tour:
    """The tour the edges form, checked to be one cycle over the whole
    board that keeps every outer edge."""
    cycles = cycle_partition(edges)
    if len(cycles) != 1 or len(cycles[0]) != key.leaper.side ** 2:
        raise ConstructionError(f"{what} left {len(cycles)} cycles")
    if not key.outer_edges <= edges:
        raise ConstructionError(f"{what} dropped an outer edge")
    return Tour(cells=cycles[0])


def splice(key: KeyGraph, bits: Sequence[int]) -> Tour:
    """Single fixed-order pass of cycle-merging flips over all rhombi."""
    edges, tracker = _tracked_halving(key, bits)
    for r in key.rhombi:
        _merge_flip(edges, tracker, r)
    return _single_tour(key, edges, "splice")


def _partners(key: KeyGraph) -> list[int]:
    """Index of each rhombus's central reflection among the key's rhombi."""
    side = key.leaper.side
    index = {r.cellset(): i for i, r in enumerate(key.rhombi)}
    return [index[frozenset(reflect_cell(c, side, "center") for c in r.cells)] for r in key.rhombi]


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
    edges, tracker = _tracked_halving(key, symmetric_halving_bits(key))
    for e in edges:
        if reflect(e, side, "center") == e:
            raise ConstructionError(f"edge {e} is its own central reflection")
        if reflect(e, side, "center") not in edges:
            raise ConstructionError("initial halving is not centrally symmetric")
    partners = _partners(key)

    # the grown cycle holds all of r1, so it holds the anchor's mirror image,
    # and it stays centrally symmetric as long as the edge set does
    r1 = _find_center_rhombus(key)
    anchor = r1.cells[0]
    _merge_flip(edges, tracker, r1)

    while True:
        grown = tracker.find(anchor)
        for i, pending in enumerate(key.rhombi):
            m1, m2 = pending.matching(current_matching(edges, pending))
            if (tracker.find(m1[0]) == grown) != (tracker.find(m2[0]) == grown):
                break
        else:
            break

        rstar = key.rhombi[partners[i]]
        if rstar is pending:
            raise ConstructionError("self-symmetric rhombus straddles the grown cycle")
        out_edge = m2 if tracker.find(m1[0]) == grown else m1
        out_star = reflect(out_edge, side, "center")
        absorbed, star_cycle = tracker.find(out_edge[0]), tracker.find(out_star[0])
        if out_star not in rstar.matching(current_matching(edges, rstar)) or star_cycle == grown:
            raise ConstructionError("partner rhombus does not mirror the pending one")

        if star_cycle == absorbed:
            # both loose edges on one cycle: a triple flip merges it in
            for r in (r1, pending, rstar):
                _flip_edges(edges, r)
            merged = {c for c in tracker.parent if tracker.find(c) in (grown, absorbed)}
            if set(next(c for c in cycle_partition(edges) if anchor in c)) != merged:
                raise ConstructionError("symmetric splice failed to grow the cycle")
            tracker.union(anchor, out_edge[0])
        elif not (_merge_flip(edges, tracker, pending) and _merge_flip(edges, tracker, rstar)):
            raise ConstructionError("symmetric splice failed to grow the cycle")
        mirrored = reflect(set(pending.matching(current_matching(edges, pending))), side, "center")
        if mirrored != set(rstar.matching(current_matching(edges, rstar))):
            raise ConstructionError("grown cycle lost central symmetry")

    tour = _single_tour(key, edges, "symmetric splice")
    if reflect(edges, side, "center") != edges:  # the tour's edge set
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
