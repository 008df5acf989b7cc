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
rhombi, and the symmetric one a pass over partner pairs after joining each
cycle to its mirror image.  Ids turn back into cells only in Tour.cells and
in error messages.  Central symmetry is proved once: mirror partners found
in pencil order, the outer edges reflected, and one bits check at the end
of the symmetric splice.
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
    single_cycle,
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
    """Disjoint sets over cell ids, one per cycle (per mirror class in the
    symmetric splice).  The tracker works in place on the parent list it is
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
    splices return passes through cycle_partition, which proves every
    degree is 2.  So a halving with a cell of another degree fails there,
    whatever the flips before it did.
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
    """Flip rhombus i iff its matching edges lie in different sets of the
    tracker, recording their union; True iff it flipped."""
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
    return Tour(single_cycle(cycle_partition(halving_ids(key, bits), side * side, side), side, what))


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
        named = "".join(f", {_rhombus_cells(key, i)}" for i in fixed)
        raise ConstructionError(f"expected one self-symmetric forward rhombus, got {len(fixed)}{named}")
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
    """A centrally symmetric tour by one Kruskal pass over mirror classes.

    A class is a halving cycle with its mirror image, and a partner pair
    {i, partner(i)} links the classes of i's matching edges with weight
    min(i, partner(i)).  Growing a symmetric cycle from the centre rhombus
    by the first rhombus in index order that straddles it (its partner
    straddles too) is Prim's algorithm on the classes; the weights are
    distinct, so the spanning tree is unique, and this pass flips the same
    pairs.  A self-mirror cycle joins by a triple flip, which also toggles
    the centre rhombus; the centre also flips at the start iff its matching
    edges lie on two cycles, which mirror each other and so are not
    self-mirror.  Either way it toggles (self-mirror cycles + 1) mod 2
    times.  A self-paired rhombus joins no two classes: its matching edges
    mirror each other, as a self-mirror edge's vector (side-1-2x, side-1-2y)
    is odd in both coordinates, and a leaper move is even in one.
    """
    last = key.leaper.side ** 2 - 1
    partners = _partners(key)
    bits, tracker = _tracked_halving(key, symmetric_halving_bits(key, partners))
    i1 = _find_center_rhombus(key, partners)
    label = list(tracker.parent)  # each id's halving cycle, before any union
    self_mirror = 0
    for c in set(label):
        self_mirror += label[last - c] == c
        tracker.union(c, last - c)
    for i, j in enumerate(partners):
        if i < j and _merge_flip(key, bits, tracker, i):
            bits[j] ^= 1
    bits[i1] ^= (self_mirror + 1) % 2
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
