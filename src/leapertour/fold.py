"""Folding and crisscross graphs: the connectivity side of the construction.

The key graph folds onto a small two-floor graph: the four forward cores
stack into the first floor, the four backward cores into the second, and
every maximal path of the outer graph contracts to a single edge between
the projections of its end cells.  The folded graph always coincides with
an explicitly defined "crisscross" graph R(m, n), which in turn is
connected for every admissible pair (m, n).  Both facts are checked here
per instance by direct computation.

Both two-floor graphs live on vertex ids, as the key graph lives on cell
ids: on the grid of half-width t, w = 2t + 1 = q - p, the vertex (x, y, f)
has the id ((x + t) * w + y + t) * 2 + f - 1, so id order is lexicographic
vertex order and vertices()[i] turns an id back into its vertex.  The
(x, y, f) tuple edges, which fold --dump prints, are a view derived on
first read.  One table over cell ids, filled one core column at a time,
holds every cell's projections; each outer path is found by walking it
from its smaller end, and a keygraph.CycleTracker decides connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import add

from .geom import Leaper, is_free
from .keygraph import (
    ConstructionError,
    CycleTracker,
    IdEdge,
    KeyGraph,
    build_key,
)

# A vertex of a two-floor graph: (x, y, floor) with floor 1 or 2.
FoldVertex = tuple[int, int, int]
FoldEdge = tuple[FoldVertex, FoldVertex]


@dataclass(frozen=True)
class TwoFloorGraph:
    """A graph on the (2t+1)^2 x 2 vertex grid: a folding or crisscross
    graph.  edges is derived from ids on first read."""

    t: int  # grid half-width
    ids: frozenset[IdEdge]  # vertex ids, the smaller first

    def vertices(self) -> list[FoldVertex]:
        """The vertex of each id: vertices()[i] has the id i."""
        return list(product(range(-self.t, self.t + 1), range(-self.t, self.t + 1), (1, 2)))

    @cached_property
    def edges(self) -> frozenset[FoldEdge]:
        vertex = self.vertices()
        return frozenset((vertex[a], vertex[b]) for a, b in self.ids)


@dataclass(frozen=True)
class FoldParams:
    """Parameters tying a leaper's folding graph to a crisscross graph."""

    r: int  # q - p
    m: int  # common remainder of p and q mod r
    n: int  # r - m
    h: int  # floor(p / r)

    @property
    def expected(self) -> tuple[int, int]:
        """(m, n) of the crisscross graph the folding graph must equal."""
        return (self.m, self.n) if self.h % 2 == 0 else (self.n, self.m)


@dataclass(frozen=True)
class FoldReport:
    params: FoldParams
    matches: bool
    folding_connected: bool
    folding: TwoFloorGraph
    crisscross: TwoFloorGraph  # the expected R(m, n)

    outer_acyclic = True  # check_fold raises OuterCycleError instead


def projections(key: KeyGraph) -> list[tuple[int, ...]]:
    """The fold vertex ids of each cell id: floor 1 for a forward core,
    floor 2 for a backward one, and none for a cell outside every core.  A
    cell at position (x + t, y + t) within a core projects to (x, y), so a
    core column's cells project to every second id from its first.
    """
    side = key.leaper.side
    w = key.leaper.q - key.leaper.p
    table: list[tuple[int, ...]] = [()] * side ** 2
    for floor, group in ((0, key.cores.forward), (1, key.cores.backward)):
        for core in group:
            for i, x in enumerate(range(core.x1, core.x2)):
                s, v = x * side + core.y1, 2 * w * i + floor
                table[s:s + w] = map(add, table[s:s + w], zip(range(v, v + 2 * w, 2)))
    return table


class OuterCycleError(ConstructionError):
    """The outer graph is not a union of paths, so it does not fold."""


def outer_paths(key: KeyGraph) -> list[tuple[int, int]]:
    """The two end ids of each maximal path of the outer graph, the smaller
    first, in id order.

    Each path is walked from its smaller end, a cell of outer degree 1, to
    the other.  A cell of outer degree 2 keeps the xor of its neighbours'
    ids, so the one a walk came from gives the one it goes to.  Isolated
    cells (core intersections) are not included.  OuterCycleError names a
    cell of outer degree above 2 (build_key rules them out), or else the
    smallest cell of an edge that no walk covers, which lies on a cycle.
    """
    side = key.leaper.side
    n = side ** 2
    degree, xor = [0] * n, [0] * n
    for a, b in key.outer_ids:
        degree[a] += 1
        degree[b] += 1
        xor[a] ^= b
        xor[b] ^= a
    if max(degree) > 2:
        c = next(c for c, d in enumerate(degree) if d > 2)
        raise OuterCycleError(f"outer graph branches at cell {divmod(c, side)}, degree {degree[c]}")
    walked = bytearray(n)
    paths = []
    for start in [c for c, d in enumerate(degree) if d == 1]:
        if not walked[start]:
            prev, cur = start, xor[start]
            while degree[cur] == 2:
                walked[cur] = 1
                prev, cur = cur, xor[cur] ^ prev
            walked[start] = walked[cur] = 1
            paths.append((start, cur))
    if walked.count(1) - len(paths) < len(key.outer_ids):  # each path has one cell more than edges
        c = next(c for c, d in enumerate(degree) if d and not walked[c])
        raise OuterCycleError(f"outer graph contains a cycle through cell {divmod(c, side)}")
    return paths


def build_folding(key: KeyGraph) -> TwoFloorGraph:
    """Contract each outer path to an edge between its end projections.

    Core-intersection cells count as zero-length paths and contribute the
    between-floor edges.  Coinciding contributions dedup to simple edges.
    """
    side = key.leaper.side
    t = (key.leaper.q - key.leaper.p - 1) // 2  # q - p = 2t + 1
    table = projections(key)
    ids = {pair if pair[0] < pair[1] else pair[::-1] for pair in table if len(pair) == 2}
    for a, b in outer_paths(key):
        if len(table[a]) != 1 or len(table[b]) != 1:
            c = a if len(table[a]) != 1 else b
            raise ConstructionError(
                f"outer path end {divmod(c, side)} has {len(table[c])} core projections, not 1"
            )
        (pa,), (pb,) = table[a], table[b]
        if pa == pb:
            raise ConstructionError(f"outer path {divmod(a, side)}-{divmod(b, side)} folds to a self-loop")
        ids.add((pa, pb) if pa < pb else (pb, pa))
    return TwoFloorGraph(t=t, ids=frozenset(ids))


def build_crisscross(m: int, n: int) -> TwoFloorGraph:
    """The two-floor graph R(m, n) on the (2t+1)^2 x 2 grid, m + n = 2t + 1.

    First-floor edges have types +-(m, n) and +-(-n, m); second-floor edges
    +-(n, m) and +-(-m, n); between-floor edges +-(+-m, m) and +-(+-n, n).
    Edges leaving the grid are clipped.  A move adds the same amount to
    every id it leaves from, so each grid column gives its edges of one
    move in one zip, oriented smaller first by that amount's sign.
    """
    if m < 0 or n < 0 or not is_free(m, n):
        raise ValueError(f"invalid crisscross parameters ({m}, {n})")
    t = (m + n - 1) // 2
    w = m + n

    # (from floor, to floor, move); each between-floor move and its negation
    # start on floor 1
    moves = [(1, 1, (m, n)), (1, 1, (-n, m)), (2, 2, (n, m)), (2, 2, (-m, n))]
    moves += [(1, 2, (s * vx, s * vy)) for vx, vy in ((m, m), (-m, m), (n, n), (-n, n)) for s in (1, -1)]

    ids: set[IdEdge] = set()
    for f, g, (vx, vy) in moves:
        d = 2 * (vx * w + vy) + g - f  # the id step of the move
        for x in range(max(0, -vx), min(w, w - vx)):  # grid columns counted from 0
            lo = 2 * (x * w + max(0, -vy)) + f - 1
            hi = 2 * (x * w + min(w, w - vy)) + f - 1
            src, dst = range(lo, hi, 2), range(lo + d, hi + d, 2)
            ids.update(zip(src, dst) if d > 0 else zip(dst, src))
    return TwoFloorGraph(t=t, ids=frozenset(ids))


def fold_params(leaper: Leaper) -> FoldParams:
    r = leaper.q - leaper.p
    m = leaper.p % r
    return FoldParams(r=r, m=m, n=r - m, h=leaper.p // r)


def check_fold(source: Leaper | KeyGraph) -> FoldReport:
    """Directly compare the folding graph with its expected crisscross graph.

    Takes a leaper, whose key graph it builds, or a key graph already built.
    A cycle or branch in the outer graph raises OuterCycleError, naming a cell.
    """
    key = source if isinstance(source, KeyGraph) else build_key(source)
    params = fold_params(key.leaper)
    folding = build_folding(key)
    expected = build_crisscross(*params.expected)
    return FoldReport(
        params=params,
        matches=folding.ids == expected.ids,
        folding_connected=is_connected(folding),
        folding=folding,
        crisscross=expected,
    )


def locate_failure(report: FoldReport) -> str:
    """The smallest edge in only one graph, else the folding graph's second component's first vertex."""
    vertex, name = report.folding.vertices(), "R({},{})".format(*report.params.expected)
    if not report.matches:
        a, b = min(report.folding.ids ^ report.crisscross.ids)
        holder = "the folding graph" if (a, b) in report.folding.ids else name
        return f"folding graph differs from {name}: only {holder} has the edge {vertex[a]}-{vertex[b]}"
    tracker, count = _joined(report.folding)
    return f"folding graph has {count} components, the second from vertex {vertex[tracker.first_apart()]}"


def crisscross_reduce(m: int, n: int) -> tuple[int, int]:
    """One step of the (m, n) reduction; requires 0 < m < n.

    Each step strictly decreases m + n, preserves admissibility, and every
    chain terminates at (0, 1).
    """
    if not 0 < m < n:
        raise ValueError(f"reduction needs 0 < m < n, got ({m}, {n})")
    if not is_free(m, n):
        raise ValueError(f"({m}, {n}) not admissible")
    if 3 * m < n:
        reduced = (m, n - 2 * m)
    elif 2 * m <= n:
        reduced = (n - 2 * m, m)
    else:
        reduced = (2 * m - n, m)
    mp, np_ = reduced
    assert mp < np_ and mp + np_ < m + n and is_free(mp, np_)
    return reduced


def _joined(graph: TwoFloorGraph) -> tuple[CycleTracker, int]:
    """A tracker of the two-floor grid's vertex ids joined by the edges, and the number of components."""
    tracker = CycleTracker(list(range(2 * (2 * graph.t + 1) ** 2)))
    return tracker, len(tracker.parent) - tracker.join(graph.ids)


def is_connected(graph: TwoFloorGraph) -> bool:
    """True iff the edges connect the whole two-floor vertex grid."""
    return _joined(graph)[1] <= 1
