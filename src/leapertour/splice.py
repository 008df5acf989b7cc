"""Turning pseudotours into Hamiltonian tours by rhombus flips.

A pseudotour is one matching bit per rhombus, and a flip toggles a
rhombus's bit; when the two current matching edges lie on different cycles,
the flip merges them.  Both splices share one engine over a list of bits,
and it runs on the key graph's id view (see keygraph), in lists indexed by
cell id.  It labels each cycle of the halving once, by the shared
components search, with the id of its first cell; those labels seed a
CycleTracker, and each merge flip unions two of them.  At the end the id
edges the bits pick are built once and one cycle partition checks degrees
and a single tour.  The plain splice makes one pass of merge flips over all
rhombi; the symmetric one grows a cycle by mirrored pairs.  Ids turn back
into cells only in Tour.cells and in error messages.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import getitem
from typing import Sequence

from .geom import Cell, Edge, edge
from .keygraph import (
    ConstructionError,
    KeyGraph,
    components,
    cycle_partition,
    halving_ids,
    id_adjacency,
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
    """Disjoint sets over cell ids or tile copies; two share a set iff they
    currently lie on the same cycle.  The tracker works in place on the
    parent list it is given, over ids or copy numbers: parent[x] leads
    toward x's representative r, and parent[r] == r."""

    def __init__(self, parent):
        self.parent = parent

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
    """A copy of the bits and a tracker of the components of the halving
    they pick, over cell ids, each labelled with the id of its first cell.

    It checks no degree.  A flip swaps a rhombus's matching for the other,
    which keeps every cell's degree, and the halving of every tour the
    splices return and of every triple flip passes through cycle_partition,
    which proves every degree is 2.  So a halving with a cell of another
    degree fails there, whatever the flips before it did.
    """
    roots = [0] * key.leaper.side ** 2
    for component in components(id_adjacency(halving_ids(key, bits), len(roots))):
        for c in component:
            roots[c] = component[0]

    # The key graph is the halving plus each rhombus's other matching, and
    # that matching joins the component of one current matching edge to the
    # component of the other.  So the key graph is connected iff these
    # links connect the halving's components.
    links = [(roots[e1[0]], roots[e2[0]]) for e1, e2 in map(getitem, key.matching_ids, bits)]
    if not is_connected_edges(set(roots), links):
        raise ConstructionError("key graph is not connected")
    return list(bits), CycleTracker(roots)


def _merge_flip(key: KeyGraph, bits: list[int], tracker: CycleTracker, i: int) -> bool:
    """Flip rhombus i iff its matching edges lie on different cycles,
    recording the merge of those cycles; True iff it flipped."""
    e1, e2 = key.matching_ids[i][bits[i]]
    merged = tracker.union(e1[0], e2[0])
    if merged:
        bits[i] ^= 1
    return merged


def _single_tour(key: KeyGraph, bits: Sequence[int], what: str) -> Tour:
    """The tour the bits' halving forms, checked to be one cycle over the
    whole board.  cycle_partition has shown that each of the side**2 cell
    ids has degree 2, so one cycle covers them all.  The tour keeps every
    outer edge: a cycle of side**2 cells has side**2 edges, and side**2 is
    the length of the list, which holds the outer edges; so every listed
    edge is a tour step."""
    side = key.leaper.side
    cycles = cycle_partition(halving_ids(key, bits), side * side, side)
    if len(cycles) != 1:
        raise ConstructionError(f"{what} left {len(cycles)} cycles")
    return Tour(cells=tuple(map(key.cells.__getitem__, cycles[0])))


def splice(key: KeyGraph, bits: Sequence[int]) -> Tour:
    """Single fixed-order pass of cycle-merging flips over all rhombi."""
    bits, tracker = _tracked_halving(key, bits)
    for i in range(len(key.rhombus_ids)):
        _merge_flip(key, bits, tracker, i)
    return _single_tour(key, bits, "splice")


def _partners(key: KeyGraph) -> list[int]:
    """Index of each rhombus's central reflection among the key's rhombi."""
    side = key.leaper.side
    cellsets = [frozenset(r) for r in key.rhombus_ids]
    index = {cells: i for i, cells in enumerate(cellsets)}
    partners = [index.get(frozenset(side * side - 1 - c for c in cells)) for cells in cellsets]
    if None in partners:
        cells = tuple(divmod(c, side) for c in key.rhombus_ids[partners.index(None)])
        raise ConstructionError(f"rhombus {cells} has no central mirror")
    return partners


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
    last = key.leaper.side ** 2 - 1
    bits = [0] * len(key.rhombus_ids)
    edges = set(halving_ids(key, bits))
    for a, b in edges:
        mirrored = (last - b, last - a)
        if mirrored == (a, b):
            cells = (key.cells[a], key.cells[b])
            raise ConstructionError(f"edge {cells} is its own central reflection")
        if mirrored not in edges:
            raise ConstructionError("initial halving is not centrally symmetric")
    return bits


def _find_center_rhombus(key: KeyGraph, partners: Sequence[int]) -> int:
    """Index of the unique forward rhombus fixed by the central reflection."""
    fixed = [i for i, j in enumerate(partners) if j == i and key.kind(i) == "forward"]
    if len(fixed) != 1:
        raise ConstructionError(f"expected one self-symmetric forward rhombus, got {len(fixed)}")
    return fixed[0]


def _check_mirrored_bits(bits: Sequence[int], partners: Sequence[int]) -> None:
    """Raise unless the halving the bits pick is centrally symmetric.

    Rhombus edge sets are disjoint from each other and from the outer
    edges.  symmetric_halving_bits has shown that the outer edges are
    symmetric and that the reflection maps each rhombus's matching 0 onto
    its partner's matching 0; as it maps the rhombus onto the partner, it
    maps matching 1 onto matching 1 too.  So the halving is symmetric iff
    every rhombus has the same bit as its partner.
    """
    if any(bits[i] != bits[j] for i, j in enumerate(partners)):
        raise ConstructionError("result tour is not centrally symmetric")


def symmetric_splice(key: KeyGraph) -> Tour:
    """Grow a centrally symmetric cycle by paired rhombus flips until it
    spans the board."""
    last = key.leaper.side ** 2 - 1
    matchings = key.matching_ids
    partners = _partners(key)
    bits, tracker = _tracked_halving(key, symmetric_halving_bits(key))
    find = tracker.find

    # the grown cycle holds all of r1, so it holds the anchor's mirror image,
    # and it stays centrally symmetric as long as the halving does
    i1 = _find_center_rhombus(key, partners)
    anchor = key.rhombus_ids[i1][0]
    _merge_flip(key, bits, tracker, i1)

    while True:
        grown = find(anchor)
        for i, pair in enumerate(matchings):
            m1, m2 = pair[bits[i]]
            if (find(m1[0]) == grown) != (find(m2[0]) == grown):
                break
        else:
            break

        j = partners[i]
        if j == i:
            raise ConstructionError("self-symmetric rhombus straddles the grown cycle")
        out_edge = m2 if find(m1[0]) == grown else m1
        out_star = (last - out_edge[1], last - out_edge[0])
        absorbed, star_cycle = find(out_edge[0]), find(out_star[0])
        if out_star not in matchings[j][bits[j]] or star_cycle == grown:
            raise ConstructionError("partner rhombus does not mirror the pending one")

        if star_cycle == absorbed:
            # both loose edges on one cycle: a triple flip merges it in
            for k in (i1, i, j):
                bits[k] ^= 1
            merged = {c for c in range(last + 1) if find(c) in (grown, absorbed)}
            cycles = cycle_partition(halving_ids(key, bits), last + 1, key.leaper.side)
            if set(next(c for c in cycles if anchor in c)) != merged:
                raise ConstructionError("symmetric splice failed to grow the cycle")
            tracker.union(anchor, out_edge[0])
        elif not (_merge_flip(key, bits, tracker, i) and _merge_flip(key, bits, tracker, j)):
            raise ConstructionError("symmetric splice failed to grow the cycle")
        if bits[i] != bits[j]:
            raise ConstructionError("grown cycle lost central symmetry")

    tour = _single_tour(key, bits, "symmetric splice")
    _check_mirrored_bits(bits, partners)
    return tour


def canonicalize(tour: Tour) -> Tour:
    """Rotate/reverse so the tour starts at its smallest cell and runs
    toward the smaller of that cell's two neighbours: cycle_partition's
    order, in which splice, symmetric_splice and tile already return tours."""
    cells = list(tour.cells)
    i = cells.index(min(cells))
    rotated = cells[i:] + cells[:i]
    if rotated[-1] < rotated[1]:
        rotated = [rotated[0]] + rotated[:0:-1]
    return Tour(cells=tuple(rotated))
