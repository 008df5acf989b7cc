"""Cores, rhombi, the inner/outer/key graphs, and pseudotours by halving.

On the square board of side 2(p + q) there are eight cores: four "forward"
and four "backward" squares of side q - p.  Rhombi are 4-cycles of leaper
moves joining corresponding cells of the four like-kind cores; their union
is the inner graph.  Six boundary pencils and their reflections, 24
pairwise disjoint pencils, form the outer graph.  A pencil is a rectangle
of cells swept by one move (a rhombus pencil by four in turn), so both
graphs are built pencil by pencil, and build_key decides each invariant
once, on pencils, naming a cell or an edge where it fails: the moves on
one edge per pencil step (build_inner, build_outer), the inner degrees by
rhombus i being cell i of each like-kind core, each moved onto the next,
the rhombi's central symmetry on the cores, the distinctness of all edges
on 32 families (a pencil step's rectangle of lower ends and id step), and
the outer degrees on the families' rectangles.  build_outer makes the outer
graph centrally symmetric as it builds it.  The key graph is the union of
the two, and halving every rhombus (keeping one of its two perfect
matchings) turns it into a pseudotour: a spanning subgraph in which every
cell has degree two.

build_key builds the key graph on cell ids, and a KeyGraph stores them:
the cell (x, y) has the id x * side + y, so id order is lexicographic cell
order, the central reflection of id i is side**2 - 1 - i, and
divmod(i, side) turns an id back into its cell.  The splice engine and the
fold read the ids.  The fields that hold cells as (x, y) tuples (rhombi,
inner_edges, outer_edges, edges and core_membership), and membership, the
cores holding each id, are views, derived on first read; error messages
name cells too.  A two-factor is two neighbour arrays, first and second,
indexed by id: neighbour_arrays fills them with a degree proof,
halving_arrays refuses a halving that fails it, naming a cell, and
cycle_partition walks every cycle, as halve does.  The splice engine and
tile flip their arrays in place, and one_cycle, one walk from id 0, proves
a single tour.  CycleTracker's disjoint sets answer every connectivity
question: the splices' merges, is_connected_edges, fold's check, and the
cell a failure names.
ConstructionError lives in geom and is re-exported here under its name.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, groupby, repeat, starmap
from operator import itemgetter
from typing import Hashable, Iterable, Iterator, Sequence, TypeVar

from .geom import (
    Cell,
    ConstructionError,
    Direction,
    Edge,
    Leaper,
    PencilSpec,
    Subboard,
    edge,
    expand_pencil,  # perfbench/spans.py wraps keygraph.expand_pencil by name, so it stays bound here
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
    def membership(self) -> list[int]:
        """Per id: how many cores hold the cell, 0, 1 or 2."""
        counts = Counter(chain.from_iterable(_ids(core, self.leaper.side) for core in self.cores.all()))
        return [counts[i] for i in range(self.leaper.side ** 2)]

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


def _rhombus_moves(leaper: Leaper) -> tuple[tuple[Direction, ...], tuple[Direction, ...]]:
    """The moves a to b, b to c, c to d and d to a of a forward and of a backward rhombus."""
    p, q = leaper.p, leaper.q
    return ((q, p), (p, q), (-q, -p), (-p, -q)), ((q, -p), (-p, q), (-q, p), (p, -q))


def _ids(rect: Subboard, side: int) -> Iterator[int]:
    """The ids of the rectangle's cells in row order, one range per column."""
    starts = range(rect.x1 * side + rect.y1, rect.x2 * side + rect.y1, side)
    height = rect.y2 - rect.y1
    return chain.from_iterable(map(range, starts, range(starts.start + height, starts.stop + height, side)))


def build_inner(leaper: Leaper) -> tuple[list[list[tuple[int, ...]]], list[tuple[int, ...]]]:
    """The rhombi, as two pencils of 4-cycles of cell ids, forward first,
    and the families of their eight steps (see build_key): rhombus i of a
    pencil is cell i, in row order, of each of its four cores.  Raise,
    naming a cell, unless each core lies on the board and each step's move
    takes its core onto the next, and that move is a leaper move."""
    side, moves, cores = leaper.side, leaper.directions(), build_cores(leaper)
    pencils: list[list[tuple[int, ...]]] = []
    families: list[tuple[int, ...]] = []
    for name, kind, dirs in zip(("forward", "backward"), (cores.forward, cores.backward), _rhombus_moves(leaper)):
        for k, core in enumerate(kind):
            if core.x1 < 0 or core.y1 < 0 or core.x2 > side or core.y2 > side:
                cell = next((x, y) for x, y in core.cells() if not (0 <= x < side and 0 <= y < side))
                raise ConstructionError(f"{name} core {k} leaves the {side}x{side} board at {cell}")
        for k, (core, (dx, dy)) in enumerate(zip(kind, dirs)):
            j = (k + 1) % 4
            moved, to = Subboard(core.x1 + dx, core.x2 + dx, core.y1 + dy, core.y2 + dy), kind[j]
            if moved != to:
                cell = min(set(moved.cells()) ^ set(to.cells()))
                raise ConstructionError(f"step {k} of the {name} rhombi takes core {k} off core {j} at {cell}")
            a, b = core.x1 * side + core.y1, to.x1 * side + to.y1
            _check_move(a, b, side, moves)
            low = core if a < b else to
            families.append((abs(b - a), low.x1, low.x2, low.y1, low.y2))
        pencils.append(list(zip(*(_ids(core, side) for core in kind))))
    return pencils, families


def _first_shared(families: Sequence[tuple[int, ...]], side: int) -> tuple[Edge, int] | None:
    """The smallest edge that two of the families share, as cells, and the
    earlier family's index, or None if no two share an edge.
    A family (d, x1, x2, y1, y2) is a pencil step's edges (i, i + d), d > 0,
    for each id i of the cells x1 <= x < x2, y1 <= y < y2, the rectangle of
    their lower ends.  An edge is its lower end and its step, so two
    families share one iff their steps are equal and their rectangles meet,
    and the smallest starts at the first cell of the meet; sorted by step
    and index, the families of each step come together in index order."""
    steps = sorted((d, i, *rect) for i, (d, *rect) in enumerate(families))
    shared = min(((max(x1, u1) * side + max(y1, v1), d, i) for _, group in groupby(steps, itemgetter(0))
                  for (d, i, x1, x2, y1, y2), (_, _, u1, u2, v1, v2) in combinations(group, 2)
                  if x1 < u2 and u1 < x2 and y1 < v2 and v1 < y2), default=None)
    return shared and ((divmod(shared[0], side), divmod(shared[0] + shared[1], side)), shared[2])


def _mirror(rect: Subboard, side: int) -> Subboard:
    """The central mirror of a rectangle: its ids in row order are the rectangle's, mirrored and reversed."""
    return Subboard(side - rect.x2, side - rect.x1, side - rect.y2, side - rect.y1)


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


def build_outer(leaper: Leaper) -> tuple[list[IdEdge], list[tuple[int, ...]]]:
    """The id edges, smaller id first, proved leaper moves, of the six
    boundary pencils and their reflections, and the 24 copies' families.

    A pencil's reflection is the reflected move swept over the reflected
    rectangle, so each copy is two corners and one move's end: reflect
    gives the vertical copy's, and id i to side**2 - 1 - i takes the
    identity and vertical copies to the centre and horizontal ones.  So the
    outer graph is centrally symmetric as built.  Each column of a family's
    rectangle of lower ends gives its edges in one zip."""
    side, last, moves = leaper.side, leaper.side ** 2 - 1, leaper.directions()
    edges: list[IdEdge] = []
    families: list[tuple[int, ...]] = []
    for spec in _outer_pencils(leaper):
        _, (dx, dy) = pencil_shifts(spec, side)  # the rectangle and its shift lie on the board
        rect = spec.base
        width, height = rect.x2 - rect.x1, rect.y2 - rect.y1
        first, corner = rect.x1 * side + rect.y1, (rect.x2 - 1) * side + rect.y2 - 1
        identity = (first, corner, first + dx * side + dy)
        vertical = reflect(identity, side)
        for a, b, c in (identity, vertical, [last - i for i in identity], [last - i for i in vertical]):
            _check_move(a, c, side, moves)
            xs, ys = zip(divmod(a, side), divmod(b, side))
            lo, d = min(xs) * side + min(ys) + min(c - a, 0), abs(c - a)
            families.append((d, lo // side, lo // side + width, lo % side, lo % side + height))
    for d, x1, x2, y1, y2 in families:
        for s in range(x1 * side + y1, x2 * side + y1, side):
            edges += zip(range(s, s + y2 - y1), range(s + d, s + d + y2 - y1))
    return edges, families


def build_key(leaper: Leaper) -> KeyGraph:
    """Assemble and validate the key graph (inner union outer).

    Every edge is a leaper move, though build_inner and build_outer check
    one edge per pencil step: a step shifts a rectangle that lies on the
    board by one vector, so all its edges are that move and none wraps.

    A cell needs inner degree 2e and outer degree 2 - e, for the number e of
    cores holding it.  The degree check implies the paper's sizes: the
    memberships e of the eight (q-p)-square cores sum to 8(q-p)**2, so inner
    degree 2e gives 8(q-p)**2 inner edges, that is 2(q-p)**2 rhombi, and
    outer degree 2 - e gives side**2 - 4(q-p)**2 = 16pq outer edges, once
    the edges are shown distinct.  Each invariant is decided once, on
    pencils, naming a cell or an edge where it fails, in this order:
      1. The cores: each lies on the board, and each rhombus step's move
         takes core k onto core k + 1 (build_inner).  Rhombus i is cell i,
         in row order, of each of its pencil's cores, so step k is core k
         swept by its move, which one corner pair shows legal, and vertex k
         of the rhombi runs over core k once: each cell has inner degree 2e.
      2. The rhombus mirror: the mirror of rhombus i, a, b, c, d stored as
         c*, d*, a*, b*, is rhombus w**2 - 1 - i of its pencil, w = q - p,
         once core 2 mirrors core 0 and core 3 core 1 (_mirror); if not,
         rhombus 0 of the pencil is named.
      3. Distinctness, on 32 families, not edge by edge.  A family is one
         pencil step: an id step d > 0 and the rectangle of its edges'
         lower ends, its edges (i, i + d) for each id i of the rectangle.
         After the core checks, the edges between vertices k and k + 1 are
         core k swept by the move v_k: the cores are (q-p)-squares, so every
         rhombus takes the same id step, and the lower ends are core k, or
         core k + 1 if v_k lowers the id.  An outer copy is its rectangle
         swept by one move, and build_outer emits exactly its family.  Two
         families share an edge iff their steps are equal and their
         rectangles meet; within a family the lower ends differ.  As
         |dy| < side / 2, an id step is one move up to its sign.  In a
         pencil v2 = -v0 and v3 = -v1, so steps k and k + 2 take one id
         step, and their lower ends are two of the pencil's cores: the
         rhombi share no edge iff those cores miss each other.  No forward
         move equals a backward move or its opposite, as p >= 1.
         _first_shared names the smallest shared edge: of two rhombi before
         the outer pencils are built, then of both graphs.
      4. The outer degrees, on 56 rectangles: outer degree 2 - e for every
         cell means that the 8 cores and the 24 families' rectangles of
         lower ends, and of upper ends shifted by the step d, cover every
         cell twice.  balance, the difference array of the cover minus 2,
         has prefix sums 0 before its first nonzero entry i, so cell i is
         the first covered 2 + balance[i] times, its outer degree
         2 - e + balance[i], and i < side**2, as the entries sum to 0.
      5. An outer edge repeated with every degree balanced, the smallest
         edge two outer families share, is named last.
    The outer graph is centrally symmetric as build_outer builds it, and no
    outer edge is its own mirror: its vector (side-1-2x, side-1-2y) is odd
    in both coordinates, a move even in one."""
    side, size = leaper.side, leaper.side ** 2
    cores = build_cores(leaper)
    pencils, families = build_inner(leaper)
    for (a, b, c, d), pencil in zip((cores.forward, cores.backward), pencils):
        if _mirror(c, side) != a or _mirror(d, side) != b:
            raise ConstructionError(f"rhombus {tuple(divmod(v, side) for v in pencil[0])} has no central mirror")
    if shared := _first_shared(families, side):
        raise ConstructionError(f"two rhombi share the edge {shared[0]}")

    outer, outer_families = build_outer(leaper)
    shared = _first_shared(families + outer_families, side)
    if shared and shared[1] < len(families):
        raise ConstructionError(f"inner and outer graphs share the edge {shared[0]}")
    balance = [-2] + [0] * (size - 1) + [2]  # the difference array of each cell's cover minus 2
    rects = [(0, c.x1, c.x2, c.y1, c.y2) for c in cores.all()] + [(k, *r) for d, *r in outer_families for k in (0, d)]
    for shift, x1, x2, y1, y2 in rects:
        for s in range(x1 * side + y1 + shift, x2 * side + y1 + shift, side):
            balance[s] += 1
            balance[s + y2 - y1] -= 1
    if any(balance):  # every prefix sum before the first nonzero entry is 0
        x, y = divmod(i := next(filter(balance.__getitem__, range(size))), side)
        e = sum(c.x1 <= x < c.x2 and c.y1 <= y < c.y2 for c in cores.all())
        raise ConstructionError(f"degree mismatch at {(x, y)}: membership {e}, inner {2 * e}, outer {2 - e + balance[i]}")
    if shared:  # a repeat the degrees do not show: other edges at its ends are missing
        raise ConstructionError(f"outer graph repeats the edge {shared[0]}")

    return KeyGraph(leaper, cores, tuple(chain(*pencils)), tuple(outer))


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
    """The cycles of a two-factor's neighbour arrays in the canonical order,
    by their smallest ids: each from that id toward its smaller neighbour.
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
    degree = Counter(chain.from_iterable(edges))
    c = next(c for c in range(n) if degree[c] != 2)
    return ConstructionError(f"cell {divmod(c, height)} has degree {degree[c]}, expected 2")


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


def halving_arrays(key: KeyGraph, bits: Sequence[int]) -> Arrays:
    """The neighbour arrays of the halving the bits pick.  Raise, naming a
    cell, if a cell's degree is not 2: it is the same in every halving, as
    both matchings of a rhombus cover its four cells."""
    side = key.leaper.side
    arrays = neighbour_arrays(halving_ids(key, bits), side * side)
    if arrays is None:
        raise degree_error(halving_ids(key, bits), side * side, side)
    return arrays


def halve(key: KeyGraph, bits: Sequence[int]) -> TwoFactor:
    """Pseudotour from a per-rhombus matching choice (one bit per rhombus),
    proved a two-factor by its neighbour arrays, split into its cycles, and
    its edges read off the cycles."""
    cycles = tuple(tuple(map(key.cells.__getitem__, c)) for c in cycle_partition(*halving_arrays(key, bits)))
    return TwoFactor(frozenset(chain.from_iterable(map(edge, c, c[1:] + c[:1]) for c in cycles)), cycles)


class CycleTracker:
    """Disjoint sets in place on a parent list or dict: parent[x] leads toward
    x's root r, parent[r] == r, and each walk to a root points the elements on
    its path at their grandparents.  union walks both inline and puts y's under x's."""

    def __init__(self, parent):
        self.parent = parent

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(self, x, y) -> bool:
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x == y:
            return False
        parent[y] = x
        return True

    def join(self, edges: Iterable[tuple]) -> int:
        """Union the ends of each edge; the number of merges."""
        return sum(starmap(self.union, edges))

    def first_apart(self) -> int:
        """The first of the ids 0 .. n - 1 not joined to id 0: the second component's first id."""
        return next(i for i in range(len(self.parent)) if self.find(i) != self.find(0))


def is_connected_edges(cells: Iterable[V], edges: Iterable[tuple[V, V]]) -> bool:
    """True iff the edges join all the given vertices into one component, as
    n - 1 merges join n; both ends of every edge must be among them."""
    tracker = CycleTracker({v: v for v in cells})
    return tracker.join(edges) >= len(tracker.parent) - 1
