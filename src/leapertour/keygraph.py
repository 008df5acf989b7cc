"""Cores, rhombi, the inner/outer/key graphs, and pseudotours by halving.

On the square board of side 2(p + q) there are eight cores: four "forward"
and four "backward" squares of side q - p.  Rhombi are 4-cycles of leaper
moves joining corresponding cells of the four like-kind cores; their union
is the inner graph.  Six boundary pencils and their reflections form the
outer graph.  The key graph is the union of the two, and halving every
rhombus (keeping one of its two perfect matchings) turns it into a
pseudotour: a spanning subgraph in which every cell has degree two.

build_key builds the key graph on cell ids, and a KeyGraph stores them:
the cell (x, y) has the id x * side + y, so id order is lexicographic cell
order, the central reflection of id i is side**2 - 1 - i, and
divmod(i, side) turns an id back into its cell.  The splice engine and the
fold read the ids.  The fields that hold cells as (x, y) tuples (rhombi,
inner_edges, outer_edges, edges and core_membership) are views, derived
from the ids on first read; error messages name cells too.  One depth-first
search over id neighbour lists, components, serves cycle_partition (for
both splices and tile), TwoFactor.cycles, is_connected_edges and fold.
ConstructionError lives in geom and is re-exported here under its name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Hashable, Iterable, Sequence, TypeVar

from .geom import (
    Cell,
    ConstructionError,
    Edge,
    Leaper,
    PencilSpec,
    Subboard,
    REFLECTIONS,
    edge,
    expand_pencil,
    reflect,
)

V = TypeVar("V", bound=Hashable)
IdEdge = tuple[int, int]  # cell ids, the smaller first


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


@dataclass(frozen=True)
class KeyGraph:
    leaper: Leaper
    cores: Cores
    # each rhombus's cells in cyclic order, the forward pencil first
    rhombus_ids: tuple[tuple[int, int, int, int], ...]
    outer_ids: tuple[IdEdge, ...]  # smaller id first
    membership: list[int]  # per id: how many cores hold the cell, 0, 1 or 2

    def kind(self, i: int) -> str:
        """The pencil of rhombus i, told by its first move: (q, p) is forward."""
        a, b = self.rhombus_ids[i][:2]
        return "forward" if b - a == self.leaper.q * self.leaper.side + self.leaper.p else "backward"

    # The derived views.  cached_property stores its value on the instance,
    # so a dataclasses.replace copy derives its own from its own fields.
    @cached_property
    def cells(self) -> list[Cell]:
        """The cell of each id: cells[x * side + y] == (x, y)."""
        return list(map(divmod, range(self.leaper.side ** 2), repeat(self.leaper.side)))

    @cached_property
    def matching_ids(self) -> tuple[tuple[tuple[IdEdge, IdEdge], tuple[IdEdge, IdEdge]], ...]:
        """Per rhombus a, b, c, d, its two perfect matchings as id pairs,
        smaller id first: matching 0 is {ab, cd} and matching 1 is {bc, da}."""
        return tuple(
            ((_id_edge(a, b), _id_edge(c, d)), (_id_edge(b, c), _id_edge(d, a)))
            for a, b, c, d in self.rhombus_ids
        )

    @cached_property
    def rhombi(self) -> tuple[Rhombus, ...]:
        cell = self.cells
        return tuple(
            Rhombus(tuple(map(cell.__getitem__, r)), self.kind(i))
            for i, r in enumerate(self.rhombus_ids)
        )

    @cached_property
    def inner_edges(self) -> frozenset[Edge]:
        return frozenset(e for r in self.rhombi for e in r.edges())

    @cached_property
    def outer_edges(self) -> frozenset[Edge]:
        cell = self.cells
        return frozenset((cell[a], cell[b]) for a, b in self.outer_ids)

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return self.inner_edges | self.outer_edges

    @cached_property
    def core_membership(self) -> dict[Cell, int]:
        return dict(zip(self.cells, self.membership))


def _id_edge(a: int, b: int) -> IdEdge:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class TwoFactor:
    """A spanning degree-2 subgraph of the side x side board; cycles is derived on first read."""

    edges: frozenset[Edge]
    side: int

    @cached_property
    def cycles(self) -> tuple[tuple[Cell, ...], ...]:
        side = self.side
        adj = id_adjacency([(x * side + y, u * side + v) for (x, y), (u, v) in self.edges], side * side)
        return tuple(tuple(divmod(c, side) for c in cycle) for cycle in components(adj))


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


def build_inner(leaper: Leaper) -> tuple[list[tuple[int, ...]], set[IdEdge]]:
    """All rhombi (as two pencils of closed 4-cycles of cell ids, forward
    first) and their edge union."""
    p, q = leaper.p, leaper.q
    side = leaper.side
    cores = build_cores(leaper)
    rhombi: list[tuple[int, ...]] = []
    for base, dirs in (
        (cores.forward[0], ((q, p), (p, q), (-q, -p), (-p, -q))),
        (cores.backward[0], ((q, -p), (-p, q), (-q, p), (p, -q))),
    ):
        for path in expand_pencil(PencilSpec(base, dirs), side):
            if path[4] != path[0]:
                raise ConstructionError(f"rhombus pencil not closed at {divmod(path[0], side)}")
            rhombi.append(path[:4])
    edges: set[IdEdge] = set()
    for a, b, c, d in rhombi:
        for e in (_id_edge(a, b), _id_edge(b, c), _id_edge(c, d), _id_edge(d, a)):
            if e in edges:
                cells = (divmod(e[0], side), divmod(e[1], side))
                raise ConstructionError(f"two rhombi share the edge {cells}")
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


def build_outer(leaper: Leaper) -> set[IdEdge]:
    """Union of the six boundary pencils and all their reflections, as id
    edges.  Reflected pencils may coincide, so the union is deduplicated."""
    side = leaper.side
    edges: set[IdEdge] = set()
    for spec in _outer_pencils(leaper):
        columns = list(zip(*expand_pencil(spec, side)))  # vertex k of every path
        for which in REFLECTIONS:
            mirrored = [reflect(column, side, which) for column in columns]
            for a, b in zip(mirrored, mirrored[1:]):
                # one step moves every path by the same vector, so all its
                # edges point the same way in id order
                edges.update(zip(a, b) if a[0] < b[0] else zip(b, a))
    return edges


def build_key(leaper: Leaper) -> KeyGraph:
    """Assemble and validate the key graph (inner union outer).

    The degree check implies the paper's sizes.  The memberships e of the
    eight (q-p)-square cores sum to 8(q-p)**2, so inner degree 2e gives
    8(q-p)**2 inner edges, that is 2(q-p)**2 rhombi, as build_inner rejects a
    shared edge; outer degree 2 - e gives side**2 - 4(q-p)**2 = 16pq outer edges."""
    side = leaper.side
    cores = build_cores(leaper)
    rhombi, inner = build_inner(leaper)
    outer = build_outer(leaper)

    if inner & outer:
        shared = tuple(divmod(c, side) for c in min(inner & outer))
        raise ConstructionError(f"inner and outer graphs share the edge {shared}")

    membership = [0] * (side * side)
    for core in cores.all():
        for x in range(core.x1, core.x2):
            for i in range(x * side + core.y1, x * side + core.y2):
                membership[i] += 1

    # An id difference alone would accept a move that wraps round the board:
    # (dx + 1, dy - side) has the id difference of (dx, dy).  So each edge's
    # y difference must be the one its id difference names.
    dy_of = {dx * side + dy: dy for dx, dy in leaper.directions()}
    deg_inner, deg_outer = [0] * (side * side), [0] * (side * side)
    for edges, degrees in ((inner, deg_inner), (outer, deg_outer)):
        for a, b in edges:
            if dy_of.get(b - a) != b % side - a % side:
                raise ConstructionError(f"illegal move {divmod(a, side)}-{divmod(b, side)}")
            degrees[a] += 1
            degrees[b] += 1
    for i, e in enumerate(membership):
        if deg_inner[i] != 2 * e or deg_outer[i] != 2 - e:
            raise ConstructionError(
                f"degree mismatch at {divmod(i, side)}: membership {e}, "
                f"inner {deg_inner[i]}, outer {deg_outer[i]}"
            )

    return KeyGraph(leaper, cores, tuple(rhombi), tuple(outer), membership)


def id_adjacency(edges: Iterable[IdEdge], n: int) -> list[list[int]]:
    """Neighbour lists of an undirected edge set on the ids 0 .. n - 1."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def components(adj: Sequence[Sequence[int]]) -> list[list[int]]:
    """The components of the graph on ids with these neighbour lists, each
    in depth-first order.

    Start ids are taken in increasing order, and each start visits its
    smaller neighbour first.  So each component starts at its smallest id,
    and on a degree-2 graph each comes out as its cycle in canonical order:
    from that id toward the smaller of its two neighbours.
    """
    seen = [False] * len(adj)
    out = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        stack = sorted(adj[start], reverse=True)
        while stack:
            v = stack.pop()
            if not seen[v]:
                seen[v] = True
                component.append(v)
                stack += adj[v]
        out.append(component)
    return out


def cycle_partition(edges: Iterable[IdEdge], n: int, height: int) -> list[list[int]]:
    """Split a degree-2 edge set on the ids 0 .. n - 1 into canonical cyclic
    id sequences (see components).

    The id of the cell (x, y) is x * height + y, so id order is lexicographic
    cell order, and a degree failure names the first such cell.
    """
    adj = id_adjacency(edges, n)
    _check_degree_two(list(map(len, adj)), height)
    return components(adj)


def _check_degree_two(degrees: Sequence[int], height: int) -> None:
    """Raise, naming the first cell in id order, unless every degree is 2."""
    if degrees.count(2) != len(degrees):
        c = next(c for c, d in enumerate(degrees) if d != 2)
        raise ConstructionError(f"cell {divmod(c, height)} has degree {degrees[c]}, expected 2")


def halving_ids(key: KeyGraph, bits: Sequence[int]) -> list[IdEdge]:
    """The outer id edges plus the matching each bit picks for its rhombus."""
    if len(bits) != len(key.rhombus_ids):
        raise ValueError(f"need {len(key.rhombus_ids)} bits, got {len(bits)}")
    edges = list(key.outer_ids)
    for pair, bit in zip(key.matching_ids, bits):
        edges += pair[bit]
    return edges


def halve(key: KeyGraph, bits: Sequence[int]) -> TwoFactor:
    """Pseudotour from a per-rhombus matching choice (one bit per rhombus),
    proved a two-factor by counting each cell's degree on cell ids."""
    side = key.leaper.side
    edges = halving_ids(key, bits)
    degrees = [0] * (side * side)
    for a, b in edges:
        degrees[a] += 1
        degrees[b] += 1
    _check_degree_two(degrees, side)
    cell = key.cells
    return TwoFactor(frozenset([(cell[a], cell[b]) for a, b in edges]), side)


def is_connected_edges(cells: Iterable[V], edges: Iterable[tuple[V, V]]) -> bool:
    """True iff the edges join all the given vertices into one component;
    both ends of every edge must be among them."""
    index = {v: i for i, v in enumerate(set(cells))}
    ids = [(index[a], index[b]) for a, b in edges]
    return len(components(id_adjacency(ids, len(index)))) <= 1
