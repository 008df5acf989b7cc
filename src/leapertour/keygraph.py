"""Cores, rhombi, the inner/outer/key graphs, and pseudotours by halving.

On the square board of side 2(p + q) there are eight cores: four "forward"
and four "backward" squares of side q - p.  Rhombi are 4-cycles of leaper
moves joining corresponding cells of the four like-kind cores; their union
is the inner graph.  Six boundary pencils and their reflections, 24
pairwise disjoint pencils, form the outer graph.  A pencil is a rectangle
of cells swept by one move (a rhombus pencil by four in turn), so both
graphs are built, and their moves checked, pencil by pencil.  The key
graph is the union of the two, and halving every rhombus (keeping one of
its two perfect matchings) turns it into a pseudotour: a spanning subgraph
in which every cell has degree two.

build_key builds the key graph on cell ids, and a KeyGraph stores them:
the cell (x, y) has the id x * side + y, so id order is lexicographic cell
order, the central reflection of id i is side**2 - 1 - i, and
divmod(i, side) turns an id back into its cell.  The splice engine and the
fold read the ids.  The fields that hold cells as (x, y) tuples (rhombi,
inner_edges, outer_edges, edges and core_membership) are views, derived
from the ids on first read; error messages name cells too.  A two-factor
is two neighbour arrays, first and second, indexed by id: neighbour_arrays
fills them with a degree proof, and cycle_partition walks every cycle, as
halve does.  The splice engine and tile flip their arrays in place, and
one_cycle, one walk from id 0, proves a single tour.  The depth-first
search over id neighbour lists, components, serves is_connected_edges,
fold's connectivity check and the failure paths.
ConstructionError lives in geom and is re-exported here under its name.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Hashable, Iterable, Iterator, Sequence, TypeVar

from .geom import (
    Cell,
    ConstructionError,
    Direction,
    Edge,
    Leaper,
    PencilSpec,
    Subboard,
    REFLECTIONS,
    edge,
    expand_pencil,
    pencil_shifts,
    reflect,
)

V = TypeVar("V", bound=Hashable)
IdEdge = tuple[int, int]  # two cell ids
Arrays = tuple[list[int], list[int]]  # a two-factor: each id's first and second neighbour


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


@dataclass(frozen=True)
class TwoFactor:
    """A spanning degree-2 subgraph of the board and its cycles, in cycle_partition's order."""

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


def _check_move(a: int, b: int, side: int, moves: frozenset[Direction]) -> None:
    """Raise unless the cells with ids a and b are one leaper move apart.
    Their id difference alone would accept a move that wraps round the
    board: (dx + 1, dy - side) has the id difference of (dx, dy)."""
    (x, y), (u, v) = divmod(a, side), divmod(b, side)
    if (u - x, v - y) not in moves:
        raise ConstructionError(f"illegal move {min((x, y), (u, v))}-{max((x, y), (u, v))}")


def build_inner(leaper: Leaper) -> tuple[list[tuple[int, ...]], set[IdEdge]]:
    """All rhombi (as two pencils of closed 4-cycles of cell ids, forward
    first) and their edge union, proved leaper moves and pairwise distinct.
    Every path of a pencil is its base cell plus the same shifts, so one
    path shows the pencil closed and one edge shows each step legal."""
    p, q = leaper.p, leaper.q
    side = leaper.side
    moves = leaper.directions()
    cores = build_cores(leaper)
    rhombi: list[tuple[int, ...]] = []
    edges: list[IdEdge] = []
    for base, dirs in (
        (cores.forward[0], ((q, p), (p, q), (-q, -p), (-p, -q))),
        (cores.backward[0], ((q, -p), (-p, q), (-q, p), (p, -q))),
    ):
        paths = expand_pencil(PencilSpec(base, dirs), side)
        if paths[0][4] != paths[0][0]:
            raise ConstructionError(f"rhombus pencil not closed at {divmod(paths[0][0], side)}")
        rhombi += [path[:4] for path in paths]
        columns = list(zip(*paths))[:4]  # vertex k of every rhombus
        for a, b in zip(columns, columns[1:] + columns[:1]):
            _check_move(a[0], b[0], side, moves)
            edges += zip(a, b) if a[0] < b[0] else zip(b, a)
    unique = set(edges)
    if len(unique) != len(edges):
        a, b = next(e for e, n in Counter(edges).items() if n > 1)
        raise ConstructionError(f"two rhombi share the edge {(divmod(a, side), divmod(b, side))}")
    return rhombi, unique


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


def build_outer(leaper: Leaper) -> list[IdEdge]:
    """The edges of the six boundary pencils and all their reflections, as
    id edges, smaller id first, proved leaper moves.

    A pencil's reflection is the reflected move swept over the reflected
    rectangle, so reflect maps only two corners and one move's end.  Each
    column of the rectangle of the edges' lower ends gives its edges in one
    zip."""
    side = leaper.side
    moves = leaper.directions()
    edges: list[IdEdge] = []
    for spec in _outer_pencils(leaper):
        _, (dx, dy) = pencil_shifts(spec, side)  # the rectangle and its shift lie on the board
        rect = spec.base
        width, height = rect.x2 - rect.x1, rect.y2 - rect.y1
        first, last = rect.x1 * side + rect.y1, (rect.x2 - 1) * side + rect.y2 - 1
        for which in REFLECTIONS:
            a, b, c = reflect((first, last, first + dx * side + dy), side, which)
            _check_move(a, c, side, moves)
            xs, ys = zip(divmod(a, side), divmod(b, side))
            lo, d = min(xs) * side + min(ys) + min(c - a, 0), abs(c - a)
            for s in range(lo, lo + width * side, side):
                edges += zip(range(s, s + height), range(s + d, s + d + height))
    return edges


def build_key(leaper: Leaper) -> KeyGraph:
    """Assemble and validate the key graph (inner union outer).

    Every edge is a leaper move, though build_inner and build_outer check
    one edge per pencil step: a step shifts a rectangle that lies on the
    board by one vector, so all its edges are that move and none wraps.

    The degree check implies the paper's sizes.  The memberships e of the
    eight (q-p)-square cores sum to 8(q-p)**2, so inner degree 2e gives
    8(q-p)**2 inner edges, that is 2(q-p)**2 rhombi, as build_inner rejects a
    shared edge; outer degree 2 - e gives side**2 - 4(q-p)**2 = 16pq outer
    edges, and the union's size shows them distinct."""
    side = leaper.side
    cores = build_cores(leaper)
    rhombi, inner = build_inner(leaper)
    outer = build_outer(leaper)

    distinct = len(inner.union(outer)) == len(inner) + len(outer)
    if not distinct and not inner.isdisjoint(outer):
        shared = tuple(divmod(c, side) for c in min(inner.intersection(outer)))
        raise ConstructionError(f"inner and outer graphs share the edge {shared}")

    membership = [0] * (side * side)
    for core in cores.all():
        for x in range(core.x1, core.x2):
            for i in range(x * side + core.y1, x * side + core.y2):
                membership[i] += 1

    deg_inner, deg_outer = [0] * (side * side), [0] * (side * side)
    for edges, degrees in ((inner, deg_inner), (outer, deg_outer)):
        for a, b in edges:
            degrees[a] += 1
            degrees[b] += 1
    for i, e in enumerate(membership):
        if deg_inner[i] != 2 * e or deg_outer[i] != 2 - e:
            raise ConstructionError(
                f"degree mismatch at {divmod(i, side)}: membership {e}, "
                f"inner {deg_inner[i]}, outer {deg_outer[i]}"
            )
    if not distinct:  # a repeat the degrees do not show: other edges at its ends are missing
        a, b = next(e for e, n in Counter(outer).items() if n > 1)
        raise ConstructionError(f"outer graph repeats the edge {(divmod(a, side), divmod(b, side))}")

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


def neighbour_arrays(edges: Iterable[IdEdge], n: int) -> Arrays | None:
    """The first and second neighbour of each id 0 .. n - 1, or None unless
    every id has degree 2: an id's third end sets its first to n, and too
    few leave its second at -1."""
    first, second = [-1] * n, [-1] * n
    for a, b in edges:
        if first[a] < 0:
            first[a] = b
        elif second[a] < 0:
            second[a] = b
        else:
            first[a] = n
        if first[b] < 0:
            first[b] = a
        elif second[b] < 0:
            second[b] = a
        else:
            first[b] = n
    return None if -1 in second or n in first else (first, second)


def walk(first: list[int], second: list[int], start: int) -> list[int]:
    """The cycle through start, from start toward its smaller neighbour."""
    prev, cur, cycle = start, min(first[start], second[start]), [start]
    while cur != start:
        cycle.append(cur)
        prev, cur = cur, first[cur] if first[cur] != prev else second[cur]
    return cycle


def cycle_partition(first: list[int], second: list[int]) -> list[list[int]]:
    """The cycles of a two-factor's neighbour arrays, in the canonical order
    of components: each from its smallest id toward its smaller neighbour."""
    seen, cycles = [False] * len(first), []
    for start in range(len(first)):
        if not seen[start]:
            cycles.append(walk(first, second, start))
            for c in cycles[-1]:
                seen[c] = True
    return cycles


def degree_error(edges: Iterable[IdEdge], n: int, height: int) -> ConstructionError:
    """The error naming the first id, as the cell (x, y) of x * height + y,
    whose degree in the edges is not 2, where neighbour_arrays gave None."""
    adj = id_adjacency(edges, n)
    c = next(c for c, a in enumerate(adj) if len(a) != 2)
    return ConstructionError(f"cell {divmod(c, height)} has degree {len(adj[c])}, expected 2")


def flip(first: list[int], second: list[int], a: int, b: int, c: int, d: int, height: int) -> None:
    """Swap the edges ab and cd of a two-factor's neighbour arrays for bc and
    da at all four ends; raise, naming the cell, if a neighbour to drop is missing."""
    for x, old, new in (a, b, d), (b, a, c), (c, d, b), (d, c, a):
        row = first if first[x] == old else second
        if row[x] != old:
            raise ConstructionError(f"cell {divmod(x, height)} has no neighbour {divmod(old, height)} to flip away")
        row[x] = new


def one_cycle(first: list[int], second: list[int], height: int, what: str) -> tuple[Cell, ...]:
    """The cells of the two-factor's cycle through id 0, in canonical order,
    if it covers every id; otherwise raise, naming the second cycle's first cell."""
    cycle = walk(first, second, 0)
    if len(cycle) != len(first):
        cycles = cycle_partition(first, second)
        raise ConstructionError(f"{what} left {len(cycles)} cycles, the second from cell {divmod(cycles[1][0], height)}")
    return tuple(map(divmod, cycle, repeat(height)))


def halving_ids(key: KeyGraph, bits: Sequence[int]) -> Iterator[IdEdge]:
    """The outer id edges, then, in rhombus order, the matching each bit
    picks for its rhombus a, b, c, d: ab and cd for 0, bc and da for 1."""
    if len(bits) != len(key.rhombus_ids):
        raise ValueError(f"need {len(key.rhombus_ids)} bits, got {len(bits)}")
    matched = (((b, c), (d, a)) if bit else ((a, b), (c, d)) for (a, b, c, d), bit in zip(key.rhombus_ids, bits))
    return chain(key.outer_ids, chain.from_iterable(matched))


def halve(key: KeyGraph, bits: Sequence[int]) -> TwoFactor:
    """Pseudotour from a per-rhombus matching choice (one bit per rhombus),
    proved a two-factor by its neighbour arrays, and split into its cycles."""
    side = key.leaper.side
    edges = list(halving_ids(key, bits))
    arrays = neighbour_arrays(edges, side * side)
    if arrays is None:
        raise degree_error(edges, side * side, side)
    cell = key.cells.__getitem__
    cycles = tuple(tuple(map(cell, c)) for c in cycle_partition(*arrays))
    return TwoFactor(frozenset([edge(cell(a), cell(b)) for a, b in edges]), cycles)


def is_connected_edges(cells: Iterable[V], edges: Iterable[tuple[V, V]]) -> bool:
    """True iff the edges join all the given vertices into one component;
    both ends of every edge must be among them."""
    index = {v: i for i, v in enumerate(set(cells))}
    ids = [(index[a], index[b]) for a, b in edges]
    return len(components(id_adjacency(ids, len(index)))) <= 1
