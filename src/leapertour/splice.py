"""Turning pseudotours into Hamiltonian tours by rhombus flips.

A pseudotour is one matching bit per rhombus, and a flip toggles a
rhombus's bit; when the two current matching edges lie on different cycles,
the flip merges them.  Both splices share one engine over a list of bits,
and it runs on the key graph's id view (see keygraph), in lists indexed by
cell id.  It fills the halving's neighbour arrays once (halving_arrays,
which refuses a cell of degree other than 2), and cycle_partition labels
each cycle with the id of its first cell; those labels seed a
keygraph.CycleTracker, and each merge flip unions two of them and flips
the rhombus's four cells in the arrays at once.  one_cycle then proves a
single tour.  The plain splice makes one pass of merge flips over all
rhombi, and the symmetric one a pass over partner pairs after joining each
cycle to its mirror image.  Ids turn back into cells only in Tour.cells and
in error messages.  build_key proves the rhombi centrally symmetric on
their cores, and build_outer builds the outer graph symmetric, so the
symmetric splice takes each rhombus's mirror from its index and checks
only its own bits, once, at the end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .geom import Cell, Edge, edge
from .keygraph import (
    Arrays,
    ConstructionError,
    CycleTracker,
    KeyGraph,
    cycle_partition,
    flip,
    halving_arrays,
    is_connected_edges,
    one_cycle,
)


@dataclass(frozen=True)
class Tour:
    """A closed tour as a cyclic sequence of cells."""

    cells: tuple[Cell, ...]

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(map(edge, self.cells, self.cells[1:] + self.cells[:1]))


def random_bits(count: int, seed: int | None) -> list[int]:
    """Seeded per-rhombus halving bits; all zeros when no seed is given."""
    if seed is None:
        return [0] * count
    rng = random.Random(seed)
    return [rng.getrandbits(1) for _ in range(count)]


def _tracked_halving(key: KeyGraph, bits: Sequence[int]) -> tuple[Arrays, CycleTracker]:
    """The neighbour arrays of the halving the bits pick, and a tracker of
    its cycles over cell ids, each labelled with the id of its first cell.
    halving_arrays refuses a cell of degree other than 2, as in halve.  Each
    splice proves the key graph connected its own way."""
    side = key.leaper.side
    halving = halving_arrays(key, bits)
    roots = [0] * side * side
    for cycle in cycle_partition(*halving):
        for c in cycle:
            roots[c] = cycle[0]
    return halving, CycleTracker(roots)


def _flip_rhombus(key: KeyGraph, halving: Arrays, bits: list[int], i: int) -> None:
    """Toggle rhombus i's bit and swap its matching in the halving's arrays."""
    r, bit = key.rhombus_ids[i], bits[i]
    flip(*halving, *r[bit:], *r[:bit], key.leaper.side)  # matching 1 of abcd is matching 0 of bcda
    bits[i] ^= 1


def _merge_flip(key: KeyGraph, halving: Arrays, bits: list[int], tracker: CycleTracker, i: int) -> bool:
    """Flip rhombus i iff its matching edges, through a and c, lie in
    different sets of the tracker, recording their union; True iff it flipped."""
    a, _, c, _ = key.rhombus_ids[i]
    if merged := tracker.union(a, c):
        _flip_rhombus(key, halving, bits, i)
    return merged


def splice(key: KeyGraph, bits: Sequence[int]) -> Tour:
    """Single fixed-order pass of cycle-merging flips over all rhombi.  The
    tour keeps every outer edge, as flips change only rhombus edges.  On a
    disconnected key graph the pass leaves one cycle per component, and
    one_cycle names the first cell off cell (0, 0)'s component."""
    halving, tracker = _tracked_halving(key, bits)
    flipped = list(bits)
    for i in range(len(key.rhombus_ids)):
        _merge_flip(key, halving, flipped, tracker, i)
    return Tour(one_cycle(*halving, key.leaper.side, "splice"))


def _rhombus_cells(key: KeyGraph, i: int) -> tuple[Cell, ...]:
    return tuple(map(key.cells.__getitem__, key.rhombus_ids[i]))


def _partners(key: KeyGraph) -> list[int]:
    """Index of each rhombus's central mirror, as build_key proves: with
    w = q - p, w**2 - 1 - i in the forward pencil, 3w**2 - 1 - i in the
    backward one.  The mirror of a, b, c, d is stored as c*, d*, a*, b*, so
    matching b ({ab, cd} or {bc, da}) maps onto the partner's matching b."""
    n = len(key.rhombus_ids) // 2
    return [*range(n - 1, -1, -1), *range(2 * n - 1, n - 1, -1)]


def symmetric_halving_bits(key: KeyGraph, partners: Sequence[int]) -> list[int]:
    """All-zero matching bits, whose halving is centrally symmetric: the partners map
    matchings by bit (see _partners), and build_key proved the outer edges symmetric."""
    return [0] * len(partners)


def _find_center_rhombus(key: KeyGraph) -> int:
    """Index of the forward rhombus fixed by the central reflection, (w**2 - 1) / 2
    for the odd w = q - p; raise, naming the rhombus there, unless it is its own mirror."""
    i, last = ((key.leaper.q - key.leaper.p) ** 2 - 1) // 2, key.leaper.side ** 2 - 1
    a, b, c, d = key.rhombus_ids[i]
    if (last - c, last - d, last - a, last - b) != (a, b, c, d):
        raise ConstructionError(f"rhombus {_rhombus_cells(key, i)} at the centre index is not its own central mirror")
    return i


def _check_mirrored_bits(key: KeyGraph, bits: Sequence[int], partners: Sequence[int]) -> None:
    """Raise, naming the first rhombus whose bit differs from its partner's,
    unless the halving the bits pick is centrally symmetric: rhombus edge
    sets are disjoint from each other and from the outer edges, which
    build_key has shown symmetric, and the reflection maps matchings by bit."""
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
    self-mirror.  So it flips once at the end iff the self-mirror cycles
    are even in number.  A self-paired rhombus joins no two classes: its matching edges
    mirror each other, as a self-mirror edge's vector (side-1-2x, side-1-2y)
    is odd in both coordinates, and a leaper move is even in one.  The key's
    symmetry is build_key's invariant; _find_center_rhombus checks the one
    fixed index, and the bits check and the final walk prove the tour.
    """
    last = key.leaper.side ** 2 - 1
    partners = _partners(key)
    bits = symmetric_halving_bits(key, partners)
    halving, tracker = _tracked_halving(key, bits)
    labels = set(tracker.parent)  # the halving cycles, before any union
    # A rhombus's other matching joins the cycles of its current matching
    # edges, through a and c, so the key graph is connected iff these links
    # connect the halving's cycles, taken before the mirror joins below,
    # which would let a key of two mirror halves pass.
    links = [(tracker.parent[a], tracker.parent[c]) for a, _, c, _ in key.rhombus_ids]
    if not is_connected_edges(labels, links):
        tracker.join(links)
        cell = divmod(tracker.first_apart(), key.leaper.side)
        raise ConstructionError(f"key graph is not connected: cell {cell} is not reached from cell (0, 0)")
    i1 = _find_center_rhombus(key)
    self_mirror = sum(tracker.parent[last - c] == c for c in labels)
    tracker.join((c, last - c) for c in labels)
    for i, j in enumerate(partners):
        if i < j and _merge_flip(key, halving, bits, tracker, i):
            _flip_rhombus(key, halving, bits, j)
    if self_mirror % 2 == 0:
        _flip_rhombus(key, halving, bits, i1)
    _check_mirrored_bits(key, bits, partners)
    return Tour(one_cycle(*halving, key.leaper.side, "symmetric splice"))


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
