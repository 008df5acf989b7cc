"""Cores, rhombi, the inner/outer/key graphs, and pseudotours by halving.

On the square board of side 2(p + q) there are eight cores: four "forward"
and four "backward" squares of side q - p.  Rhombi are 4-cycles of leaper
moves joining corresponding cells of the four like-kind cores; their union
is the inner graph.  Six boundary pencils and their reflections form the
outer graph.  The key graph is the union of the two, and halving every
rhombus (keeping one of its two perfect matchings) turns it into a
pseudotour: a spanning subgraph in which every cell has degree two.

The public fields of a KeyGraph hold cells as (x, y) tuples.  For the
splice engine a KeyGraph also offers an id view, derived once from those
fields: the cell (x, y) has the id x * side + y, so id order is
lexicographic cell order, and the central reflection of id i is
side**2 - 1 - i.  The view holds the outer edges and each rhombus's two
matchings as pairs of ids; ids turn back into cells with divmod(i, side).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Hashable, Iterable, Sequence, TypeVar

from .geom import (
    Cell,
    Edge,
    Leaper,
    PencilSpec,
    Subboard,
    REFLECTIONS,
    edge,
    expand_pencil,
    path_edges,
    reflect,
)

V = TypeVar("V", bound=Hashable)
IdEdge = tuple[int, int]


class ConstructionError(RuntimeError):
    """An internal structural invariant failed during graph construction."""


@dataclass(frozen=True)
class Cores:
    forward: tuple[Subboard, Subboard, Subboard, Subboard]
    backward: tuple[Subboard, Subboard, Subboard, Subboard]

    def all(self) -> tuple[Subboard, ...]:
        return self.forward + self.backward


@dataclass(frozen=True)
class Rhombus:
    """A 4-cycle of leaper moves with cells in cyclic order a, b, c, d."""

    cells: tuple[Cell, Cell, Cell, Cell]
    kind: str  # "forward" or "backward"

    def edges(self) -> tuple[Edge, Edge, Edge, Edge]:
        a, b, c, d = self.cells
        return (edge(a, b), edge(b, c), edge(c, d), edge(d, a))

    def matching(self, bit: int) -> tuple[Edge, Edge]:
        """One of the two perfect matchings of the 4-cycle (opposite edges)."""
        a, b, c, d = self.cells
        if bit == 0:
            return (edge(a, b), edge(c, d))
        return (edge(b, c), edge(d, a))


@dataclass(frozen=True)
class KeyGraph:
    leaper: Leaper
    cores: Cores
    rhombi: tuple[Rhombus, ...]
    inner_edges: frozenset[Edge]
    outer_edges: frozenset[Edge]
    core_membership: dict  # Cell -> 0 | 1 | 2

    @property
    def edges(self) -> frozenset[Edge]:
        return self.inner_edges | self.outer_edges

    # The id view.  cached_property stores its value on the instance, so a
    # dataclasses.replace copy derives its own from its own fields.
    @cached_property
    def outer_ids(self) -> tuple[IdEdge, ...]:
        """The outer edges as id pairs, smaller id first."""
        side = self.leaper.side
        return tuple([(x * side + y, u * side + v) for (x, y), (u, v) in self.outer_edges])

    @cached_property
    def matching_ids(self) -> tuple[tuple[tuple[IdEdge, IdEdge], tuple[IdEdge, IdEdge]], ...]:
        """Per rhombus, Rhombus.matching(0) and Rhombus.matching(1) as id
        pairs, smaller id first."""
        side = self.leaper.side
        out = []
        for r in self.rhombi:
            a, b, c, d = [x * side + y for x, y in r.cells]
            out.append(((_id_edge(a, b), _id_edge(c, d)), (_id_edge(b, c), _id_edge(d, a))))
        return tuple(out)


def _id_edge(a: int, b: int) -> IdEdge:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class TwoFactor:
    """A spanning degree-2 subgraph, stored with its cycle partition."""

    edges: frozenset[Edge]
    cycles: tuple[tuple[Cell, ...], ...]


def build_cores(leaper: Leaper) -> Cores:
    p, q = leaper.p, leaper.q
    forward = (
        Subboard(p, q, p, q),
        Subboard(p + q, 2 * q, 2 * p, p + q),
        Subboard(2 * p + q, p + 2 * q, 2 * p + q, p + 2 * q),
        Subboard(2 * p, p + q, p + q, 2 * q),
    )
    backward = (
        Subboard(2 * p, p + q, 2 * p, p + q),
        Subboard(2 * p + q, p + 2 * q, p, q),
        Subboard(p + q, 2 * q, p + q, 2 * q),
        Subboard(p, q, 2 * p + q, p + 2 * q),
    )
    return Cores(forward, backward)


def build_inner(leaper: Leaper) -> tuple[list[Rhombus], set[Edge]]:
    """All rhombi (as two pencils of closed 4-cycles) and their edge union."""
    p, q = leaper.p, leaper.q
    cores = build_cores(leaper)
    rhombi: list[Rhombus] = []
    for base, dirs, kind in (
        (cores.forward[0], ((q, p), (p, q), (-q, -p), (-p, -q)), "forward"),
        (cores.backward[0], ((q, -p), (-p, q), (-q, p), (p, -q)), "backward"),
    ):
        for path in expand_pencil(PencilSpec(base, dirs), leaper.side):
            if path[4] != path[0]:
                raise ConstructionError(f"rhombus pencil not closed at {path[0]}")
            rhombi.append(Rhombus(path[:4], kind))
    edges: set[Edge] = set()
    for r in rhombi:
        for e in r.edges():
            if e in edges:
                raise ConstructionError(f"two rhombi share the edge {e}")
            edges.add(e)
    return rhombi, edges


def _outer_pencils(leaper: Leaper) -> list[PencilSpec]:
    p, q = leaper.p, leaper.q
    return [
        PencilSpec(Subboard(0, p, 0, q), ((q, p),)),
        PencilSpec(Subboard(p, p + q, 0, p), ((-p, q),)),
        PencilSpec(Subboard(0, p, 0, p), ((p, q),)),
        PencilSpec(Subboard(q, p + q, 0, p), ((-q, p),)),
        PencilSpec(Subboard(p, q, 0, p), ((q, p),)),
        PencilSpec(Subboard(p, 2 * p, p, q), ((-p, q),)),
    ]


def build_outer(leaper: Leaper) -> set[Edge]:
    """Union of the six boundary pencils and all their reflections.

    Reflected pencils may coincide, so the union is set-deduplicated.
    """
    side = leaper.side
    edges: set[Edge] = set()
    for spec in _outer_pencils(leaper):
        base_edges = {e for path in expand_pencil(spec, side) for e in path_edges(path)}
        for which in REFLECTIONS:
            edges |= reflect(base_edges, side, which)
    return edges


def build_key(leaper: Leaper) -> KeyGraph:
    """Assemble and validate the key graph (inner union outer)."""
    side = leaper.side
    cores = build_cores(leaper)
    rhombi, inner = build_inner(leaper)
    outer = build_outer(leaper)

    if inner & outer:
        raise ConstructionError("inner and outer graphs share edges")

    p, q = leaper.p, leaper.q
    if len(rhombi) != 2 * (q - p) ** 2:
        raise ConstructionError(f"expected {2 * (q - p) ** 2} rhombi, got {len(rhombi)}")
    if len(inner) != 8 * (q - p) ** 2:
        raise ConstructionError(f"bad inner edge count {len(inner)}")
    if len(outer) != 16 * p * q:
        raise ConstructionError(f"expected {16 * p * q} outer edges, got {len(outer)}")

    membership = {(x, y): 0 for x in range(side) for y in range(side)}
    for core in cores.all():
        for cell in core.cells():
            membership[cell] += 1

    dirs = leaper.directions()
    for edges in (inner, outer):
        if not {(b[0] - a[0], b[1] - a[1]) for a, b in edges} <= dirs:
            a, b = next(e for e in edges if (e[1][0] - e[0][0], e[1][1] - e[0][1]) not in dirs)
            raise ConstructionError(f"illegal move {a}-{b}")
    deg_inner = Counter(chain.from_iterable(inner)).get
    deg_outer = Counter(chain.from_iterable(outer)).get
    for cell, e in membership.items():
        if deg_inner(cell, 0) != 2 * e or deg_outer(cell, 0) != 2 - e:
            raise ConstructionError(
                f"degree mismatch at {cell}: membership {e}, "
                f"inner {deg_inner(cell, 0)}, outer {deg_outer(cell, 0)}"
            )

    return KeyGraph(
        leaper=leaper,
        cores=cores,
        rhombi=tuple(rhombi),
        inner_edges=frozenset(inner),
        outer_edges=frozenset(outer),
        core_membership=membership,
    )


def adjacency(edges: Iterable[tuple[V, V]]) -> dict[V, list[V]]:
    """Neighbour lists of an undirected edge set; absent vertices read as []."""
    adj: dict[V, list[V]] = defaultdict(list)
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def cycle_partition(edges: Iterable[tuple[V, V]]) -> tuple[tuple[V, ...], ...]:
    """Split a degree-2 edge set into canonical cyclic vertex sequences.

    Each cycle starts at its smallest vertex and runs toward the smaller of
    that vertex's two neighbours.  On cells that is lexicographic order, and
    cell ids keep it.  The splice engine checks degrees itself before it
    partitions ids, so its degree failures still name a cell.
    """
    adj = adjacency(edges)
    if set(map(len, adj.values())) - {2}:
        cell, nbrs = next((c, nbrs) for c, nbrs in adj.items() if len(nbrs) != 2)
        raise ConstructionError(f"cell {cell} has degree {len(nbrs)}, expected 2")

    cycles = []
    for start in sorted(adj):
        if start not in adj:  # popped with an earlier cycle
            continue
        cycle = [start]
        prev, cur = start, min(adj.pop(start))
        while cur != start:
            cycle.append(cur)
            a, b = adj.pop(cur)
            prev, cur = cur, b if a == prev else a
        cycles.append(tuple(cycle))
    return tuple(cycles)


def halving_edges(key: KeyGraph, bits: Sequence[int]) -> set[Edge]:
    """The outer edges plus the matching each bit picks for its rhombus."""
    if len(bits) != len(key.rhombi):
        raise ValueError(f"need {len(key.rhombi)} bits, got {len(bits)}")
    edges = set(key.outer_edges)
    for r, bit in zip(key.rhombi, bits):
        edges.update(r.matching(bit))
    return edges


def halve(key: KeyGraph, bits: Sequence[int]) -> TwoFactor:
    """Pseudotour from a per-rhombus matching choice (one bit per rhombus)."""
    edges = halving_edges(key, bits)
    cycles = cycle_partition(edges)
    total = sum(len(c) for c in cycles)
    if total != key.leaper.side ** 2:
        raise ConstructionError(f"two-factor covers {total} cells")
    return TwoFactor(edges=frozenset(edges), cycles=cycles)


def is_connected_edges(cells: Iterable[V], edges: Iterable[tuple[V, V]]) -> bool:
    """True iff the edges join all the given vertices into one component."""
    cells = set(cells)
    if not cells:
        return True
    adj = adjacency(edges)
    start = next(iter(cells))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == cells
