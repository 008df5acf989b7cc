"""Cores, rhombi, the inner/outer/key graphs, and pseudotours by halving.

On the square board of side 2(p + q) there are eight cores: four "forward"
and four "backward" squares of side q - p.  Rhombi are 4-cycles of leaper
moves joining corresponding cells of the four like-kind cores; their union
is the inner graph.  Six boundary pencils and their reflections, 24
pairwise disjoint pencils, form the outer graph.  A pencil is a rectangle
of cells swept by one move (a rhombus pencil by four in turn), so both
graphs are built, and their moves, degrees, central symmetry and the
distinctness of their edges checked, pencil by pencil: each pencil step is
a family of edges, a rectangle of lower ends and one id step, and no two
families of one step have rectangles that meet.  The key graph is the
union of the two, and halving every rhombus (keeping one of its two perfect
matchings) turns it into a pseudotour: a spanning subgraph in which every
cell has degree two.

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
from itertools import accumulate, chain, combinations, groupby, repeat
from operator import itemgetter, sub
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

    # The derived views.  cached_property stores its value on the instance,
    # so a dataclasses.replace copy derives its own from its own fields.
    @cached_property
    def cells(self) -> list[Cell]:
        """The cell of each id: cells[x * side + y] == (x, y)."""
        return list(map(divmod, range(self.leaper.side ** 2), repeat(self.leaper.side)))

    @cached_property
    def rhombi(self) -> tuple[Rhombus, ...]:
        return tuple(Rhombus(tuple(map(self.cells.__getitem__, r))) for r in self.rhombus_ids)

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


def build_inner(leaper: Leaper) -> tuple[list[list[tuple[int, ...]]], list[tuple[int, ...]]]:
    """The rhombi, as two pencils of closed 4-cycles of cell ids, forward
    first, proved leaper moves, and the families of their eight steps (see
    build_key).  Every path of a pencil is its base cell plus the same
    shifts, so one path shows the pencil closed and one edge shows each
    step legal."""
    p, q, side = leaper.p, leaper.q, leaper.side
    moves, cores = leaper.directions(), build_cores(leaper)
    pencils: list[list[tuple[int, ...]]] = []
    families: list[tuple[int, ...]] = []
    for kind, dirs in (
        (cores.forward, ((q, p), (p, q), (-q, -p), (-p, -q))),
        (cores.backward, ((q, -p), (-p, q), (-q, p), (p, -q))),
    ):
        paths = expand_pencil(PencilSpec(kind[0], dirs), side)
        if paths[0][4] != paths[0][0]:
            raise ConstructionError(f"rhombus pencil not closed at {divmod(paths[0][0], side)}")
        pencils.append(list(map(itemgetter(slice(4)), paths)))
        for k, (a, b) in enumerate(zip(paths[0], paths[0][1:])):
            _check_move(a, b, side, moves)
            low = kind[k] if a < b else kind[(k + 1) % 4]
            families.append((abs(b - a), low.x1, low.x2, low.y1, low.y2))
    return pencils, families


def _families_meet(families: Sequence[tuple[int, ...]]) -> bool:
    """True iff two of the families share an edge.  A family (d, x1, x2, y1,
    y2) is a pencil step's edges (i, i + d), d > 0, for each id i of the
    cells x1 <= x < x2, y1 <= y < y2, the rectangle of their lower ends.  An
    edge is its lower end and its step, so two families share one iff their
    steps are equal and their rectangles meet; sorted, the families of each
    step come together."""
    return any(x1 < u2 and u1 < x2 and y1 < v2 and v1 < y2 for _, group in groupby(sorted(families), itemgetter(0))
               for (_, x1, x2, y1, y2), (_, u1, u2, v1, v2) in combinations(group, 2))


def _inner_edges(columns: Sequence[tuple[int, ...]]) -> list[IdEdge]:
    """The rhombus edges, smaller id first, from the vertex columns of the
    two pencils: each pencil's step 0 of every rhombus, then step 1, ..."""
    return [e for c in (columns[:4], columns[4:]) for a, b in zip(c, c[1:] + c[:1]) for e in zip(*sorted((a, b)))]


def _first_repeat(edges: Iterable[IdEdge]) -> IdEdge | None:
    """The first edge listed more than once, or None."""
    return next((e for e, n in Counter(edges).items() if n > 1), None)


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


def build_outer(leaper: Leaper) -> tuple[list[IdEdge], list[int], list[tuple[int, ...]]]:
    """The edges of the six boundary pencils and all their reflections, as
    id edges, smaller id first, proved leaper moves and centrally symmetric,
    their degrees as a difference array over the ids, and the family of
    each of the 24 copies.

    A pencil's reflection is the reflected move swept over the reflected
    rectangle, so reflect maps only two corners and one move's end, and a
    centre copy mirrors its identity copy (a horizontal its vertical) iff id
    i to side**2 - 1 - i maps those three ids onto the other's.  Each column
    of the rectangle of the edges' lower ends gives its edges in one zip."""
    side, last, moves = leaper.side, leaper.side ** 2 - 1, leaper.directions()
    edges: list[IdEdge] = []
    degrees = [0] * (side * side + 1)
    families: list[tuple[int, ...]] = []
    for spec in _outer_pencils(leaper):
        _, (dx, dy) = pencil_shifts(spec, side)  # the rectangle and its shift lie on the board
        rect = spec.base
        width, height = rect.x2 - rect.x1, rect.y2 - rect.y1
        first, corner = rect.x1 * side + rect.y1, (rect.x2 - 1) * side + rect.y2 - 1
        copies = [reflect((first, corner, first + dx * side + dy), side, which) for which in REFLECTIONS]
        for a, b, c in copies:
            _check_move(a, c, side, moves)
            xs, ys = zip(divmod(a, side), divmod(b, side))
            lo, d = min(xs) * side + min(ys) + min(c - a, 0), abs(c - a)
            families.append((d, lo // side, lo // side + width, lo % side, lo % side + height))
            for s in range(lo, lo + width * side, side):
                edges += zip(range(s, s + height), range(s + d, s + d + height))
                degrees[s] += 1
                degrees[s + height] -= 1
                degrees[s + d] += 1
                degrees[s + d + height] -= 1
        for (a, b, c), image in zip(copies[:2], copies[2:]):  # identity to center, vertical to horizontal
            if [last - a, last - b, last - c] != image:
                named = (divmod(min(a, c), side), divmod(max(a, c), side))
                raise ConstructionError(f"outer edge {named} has no central mirror")
    return edges, degrees, families


def build_key(leaper: Leaper) -> KeyGraph:
    """Assemble and validate the key graph (inner union outer).

    Every edge is a leaper move, though build_inner and build_outer check
    one edge per pencil step: a step shifts a rectangle that lies on the
    board by one vector, so all its edges are that move and none wraps.

    A cell needs inner degree 2e and outer degree 2 - e, for the number e of
    cores holding it: vertex k of a pencil's rhombi runs over its core k row
    by row, and the outer degrees' difference array is that of 2 - e.  The
    degree check implies the paper's sizes: the memberships e of the eight
    (q-p)-square cores sum to 8(q-p)**2, so inner degree 2e gives 8(q-p)**2
    inner edges, that is 2(q-p)**2 rhombi, and outer degree 2 - e gives
    side**2 - 4(q-p)**2 = 16pq outer edges, once the edges are shown
    distinct.  They are shown distinct on 32 families, not edge by edge.  A
    family is one pencil step: an id step d > 0 and the rectangle of its
    edges' lower ends, its edges (i, i + d) for each id i of the rectangle.
      1. Once vertex k of a rhombus pencil is core k, the edges between
         vertices k and k + 1 are core k swept by the move v_k: the cores
         are (q-p)-squares, so every rhombus takes the same id step, and the
         lower ends are core k, or core k + 1 if v_k lowers the id.  An
         outer copy is its rectangle swept by one move, and build_outer
         emits exactly its family.
      2. An edge is its lower end and its id step, so two families share an
         edge iff their steps are equal and their rectangles meet; within a
         family the lower ends differ.  As |dy| < side / 2, an id step is
         one move up to its sign.
      3. In a pencil v2 = -v0 and v3 = -v1, so steps k and k + 2 take one id
         step, and their lower ends are two of the pencil's cores: the
         rhombi share no edge iff those cores miss each other.  No forward
         move equals a backward move or its opposite, as p >= 1.
      4. An outer copy shares an edge with a rhombus family or another copy
         only if their steps are equal and their rectangles meet, so
         _families_meet decides distinctness in at most 32 * 31 / 2 tests.
    So the key is accepted when vertex k of each pencil is core k, the
    degree arrays agree and no two families of one step meet.  If any
    of these fails, the edges are listed and counted, in the order of the
    checks, to name the failure: a shared rhombus edge before the outer
    pencils are built, then an edge of both graphs, a cell's degree, and an
    outer edge repeated with every degree balanced.

    The mirror of rhombus i, a, b, c, d stored as c*, d*, a*, b*, is rhombus
    w**2 - 1 - i of its pencil, w = q - p.  No outer edge is its own mirror:
    its vector (side-1-2x, side-1-2y) is odd in both coordinates, a move even in one."""
    side, size, last = leaper.side, leaper.side ** 2, leaper.side ** 2 - 1
    cores = build_cores(leaper)
    pencils, families = build_inner(leaper)
    held, core_ids = [0] * (size + 1), []
    wanted = [2] + [0] * (size - 1) + [-2]  # the difference array of outer degrees 2 - e
    for core in cores.all():
        height, starts = core.y2 - core.y1, range(core.x1 * side + core.y1, core.x2 * side + core.y1, side)
        core_ids.append(tuple(chain.from_iterable(map(range, starts, range(starts[0] + height, size, side)))))
        for s in starts:
            held[s] += 1
            held[s + height] -= 1
            wanted[s] -= 1
            wanted[s + height] += 1
    membership = list(accumulate(held[:size]))
    columns = [column for pencil in pencils for column in zip(*pencil)]  # vertex k of each pencil's rhombi
    proved = columns == core_ids and not _families_meet(families)
    if not proved and (shared := _first_repeat(_inner_edges(columns))):
        raise ConstructionError(f"two rhombi share the edge {tuple(divmod(c, side) for c in shared)}")

    outer, outer_degrees, outer_families = build_outer(leaper)
    if not proved or outer_degrees != wanted or _families_meet(families + outer_families):
        inner = set(_inner_edges(columns))
        if both := inner.intersection(outer):
            raise ConstructionError(f"inner and outer graphs share the edge {tuple(divmod(c, side) for c in min(both))}")
        deg_inner, deg_outer = Counter(chain.from_iterable(inner)), Counter(chain.from_iterable(outer))
        for i, e in enumerate(membership):
            if deg_inner[i] != 2 * e or deg_outer[i] != 2 - e:
                at = f"{divmod(i, side)}: membership {e}, inner {deg_inner[i]}, outer {deg_outer[i]}"
                raise ConstructionError(f"degree mismatch at {at}")
        if repeated := _first_repeat(outer):  # a repeat the degrees do not show: other edges at its ends are missing
            raise ConstructionError(f"outer graph repeats the edge {tuple(divmod(c, side) for c in repeated)}")

    for a, b, c, d in (columns[:4], columns[4:]):
        if tuple(map(sub, repeat(last), c)) != a[::-1] or tuple(map(sub, repeat(last), d)) != b[::-1]:
            r = next(r for r, m in zip(zip(a, b, c, d), zip(a[::-1], b[::-1])) if (last - r[2], last - r[3]) != m)
            raise ConstructionError(f"rhombus {tuple(divmod(v, side) for v in r)} has no central mirror")

    return KeyGraph(leaper, cores, tuple(chain(*pencils)), tuple(outer), membership)


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
    of components: each from its smallest id toward its smaller neighbour.
    Each next start is the first unseen id, found by one scan from the last."""
    seen, cycles, start = [False] * (len(first) + 1), [], 0  # the last, a sentinel, ends the scan
    while (start := seen.index(False, start)) < len(first):
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
