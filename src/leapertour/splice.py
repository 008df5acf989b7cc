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
into cells only in Tour.cells and in error messages.  Central symmetry is
proved once: mirror partners found in pencil order, the outer edges
reflected, and one bits check at the end of the symmetric splice.
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
    """Disjoint sets over cell ids; two share a set iff they currently lie
    on the same cycle.  The tracker works in place on the parent list it is
    given: parent[x] leads toward x's representative r, and parent[r] == r."""

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


def _rhombus_cells(key: KeyGraph, i: int) -> tuple[Cell, ...]:
    return tuple(map(key.cells.__getitem__, key.rhombus_ids[i]))


def _partners(key: KeyGraph) -> list[int]:
    """Index of each rhombus's central reflection among the key's rhombi.

    The reflection negates every move, and each pencil's moves, negated,
    are the same moves shifted by two.  So the mirror of a, b, c, d is
    stored as c*, d*, a*, b*, and finding it in that order proves that
    matching b ({ab, cd} or {bc, da}) maps onto the partner's matching b.
    """
    last = key.leaper.side ** 2 - 1
    index = {r: i for i, r in enumerate(key.rhombus_ids)}
    partners = [index.get((last - c, last - d, last - a, last - b)) for a, b, c, d in key.rhombus_ids]
    if None in partners:
        cells = _rhombus_cells(key, partners.index(None))
        raise ConstructionError(f"rhombus {cells} has no central mirror")
    return partners


def symmetric_halving_bits(key: KeyGraph, partners: Sequence[int]) -> list[int]:
    """All-zero matching bits, whose halving is centrally symmetric: the
    partners map matchings by bit (see _partners), and each outer edge is
    checked to have a mirror image other than itself."""
    last = key.leaper.side ** 2 - 1
    outer = set(key.outer_ids)
    for a, b in key.outer_ids:
        mirrored = (last - b, last - a)
        if mirrored == (a, b) or mirrored not in outer:
            what = "is its own central reflection" if mirrored == (a, b) else "has no central mirror"
            raise ConstructionError(f"outer edge {(key.cells[a], key.cells[b])} {what}")
    return [0] * len(partners)


def _find_center_rhombus(key: KeyGraph, partners: Sequence[int]) -> int:
    """Index of the unique forward rhombus fixed by the central reflection."""
    fixed = [i for i, j in enumerate(partners) if j == i and key.kind(i) == "forward"]
    if len(fixed) != 1:
        raise ConstructionError(f"expected one self-symmetric forward rhombus, got {len(fixed)}")
    return fixed[0]


def _check_mirrored_bits(key: KeyGraph, bits: Sequence[int], partners: Sequence[int]) -> None:
    """Raise, naming the first rhombus whose bit differs from its
    partner's, unless the halving the bits pick is centrally symmetric:
    rhombus edge sets are disjoint from each other and from the outer
    edges, which symmetric_halving_bits has shown symmetric, and the
    reflection maps matchings by bit (see _partners)."""
    for i, j in enumerate(partners):
        if bits[i] != bits[j]:
            cells = _rhombus_cells(key, i)
            raise ConstructionError(f"rhombus {cells} has bit {bits[i]}, its mirror {bits[j]}")


def symmetric_splice(key: KeyGraph) -> Tour:
    """Grow a centrally symmetric cycle by paired rhombus flips until it
    spans the board.  Bits change only in partner pairs or at the
    self-paired anchor, so no step can undo an asymmetry, and the one bits
    check at the end rejects every run that made one."""
    last = key.leaper.side ** 2 - 1
    matchings = key.matching_ids
    partners = _partners(key)
    bits, tracker = _tracked_halving(key, symmetric_halving_bits(key, partners))
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

        j, pending = partners[i], _rhombus_cells(key, i)
        if j == i:
            raise ConstructionError(f"self-symmetric rhombus {pending} straddles the grown cycle")
        out_edge = m2 if find(m1[0]) == grown else m1
        out_star = (last - out_edge[1], last - out_edge[0])
        absorbed, star_cycle = find(out_edge[0]), find(out_star[0])
        if out_star not in matchings[j][bits[j]] or star_cycle == grown:
            raise ConstructionError(f"partner rhombus does not mirror the pending rhombus {pending}")

        if star_cycle == absorbed:
            # both loose edges on one cycle: a triple flip merges it in
            for k in (i1, i, j):
                bits[k] ^= 1
            merged = {c for c in range(last + 1) if find(c) in (grown, absorbed)}
            cycles = cycle_partition(halving_ids(key, bits), last + 1, key.leaper.side)
            if set(next(c for c in cycles if anchor in c)) != merged:
                raise ConstructionError(
                    f"symmetric splice triple flip failed to grow the cycle at rhombus {pending}"
                )
            tracker.union(anchor, out_edge[0])
        elif not (_merge_flip(key, bits, tracker, i) and _merge_flip(key, bits, tracker, j)):
            raise ConstructionError(
                f"symmetric splice paired flips failed to grow the cycle at rhombus {pending}"
            )

    _check_mirrored_bits(key, bits, partners)
    return _single_tour(key, bits, "symmetric splice")


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
