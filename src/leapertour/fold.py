"""Folding and crisscross graphs: the connectivity side of the construction.

The key graph folds onto a small two-floor graph: the four forward cores
stack into the first floor, the four backward cores into the second, and
every maximal path of the outer graph contracts to a single edge between
the projections of its end cells.  One table over cell ids, filled by
walking each core's cells once, holds every cell's projections, and the
paths come from keygraph.components over the outer graph's ids.  The
folded graph always coincides with an explicitly defined "crisscross"
graph R(m, n), which in turn is connected for every admissible pair
(m, n).  Both facts are checked here per instance by direct computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geom import Leaper, edge, is_free
from .keygraph import (
    ConstructionError,
    KeyGraph,
    build_key,
    components,
    id_adjacency,
    is_connected_edges,
)

# A vertex of a two-floor graph: (x, y, floor) with floor 1 or 2.
FoldVertex = tuple[int, int, int]
FoldEdge = tuple[FoldVertex, FoldVertex]


@dataclass(frozen=True)
class TwoFloorGraph:
    """A graph on the (2t+1)^2 x 2 vertex grid: a folding or crisscross graph."""

    t: int  # grid half-width
    edges: frozenset[FoldEdge]

    def vertices(self) -> list[FoldVertex]:
        t = self.t
        return [
            (x, y, f)
            for x in range(-t, t + 1)
            for y in range(-t, t + 1)
            for f in (1, 2)
        ]


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
    outer_acyclic: bool
    matches: bool
    folding_connected: bool
    folding: TwoFloorGraph | None  # None when the outer graph has a cycle
    crisscross: TwoFloorGraph | None  # the expected R(m, n); None likewise


def projections(key: KeyGraph) -> list[tuple[FoldVertex, ...]]:
    """The fold vertices of each cell id: floor 1 for a forward core, floor 2
    for a backward one, and none for a cell outside every core.  A cell at
    position (x + t, y + t) within a core projects to (x, y).
    """
    side = key.leaper.side
    t = (key.leaper.q - key.leaper.p - 1) // 2
    table: list[tuple[FoldVertex, ...]] = [()] * side ** 2
    for floor, group in ((1, key.cores.forward), (2, key.cores.backward)):
        for core in group:
            for x in range(core.x1, core.x2):
                for y in range(core.y1, core.y2):
                    table[x * side + y] += ((x - core.x1 - t, y - core.y1 - t, floor),)
    return table


class OuterCycleError(ConstructionError):
    """The outer graph contains a cycle, so it does not fold."""


def outer_paths(key: KeyGraph) -> list[tuple[int, int]]:
    """The two end ids of each maximal path of the outer graph.

    Raises OuterCycleError if the outer graph contains a cycle; isolated
    cells (core intersections) are not included.  Every cell has outer
    degree at most 2 (build_key checks it), so a component with an edge is
    a path exactly when two of its cells have outer degree 1.
    """
    adj = id_adjacency(key.outer_ids, key.leaper.side ** 2)
    ends = [[c for c in comp if len(adj[c]) == 1] for comp in components(adj) if len(comp) > 1]
    if any(len(pair) != 2 for pair in ends):
        raise OuterCycleError("outer graph contains a cycle")
    return [(a, b) for a, b in ends]


def build_folding(key: KeyGraph) -> TwoFloorGraph:
    """Contract each outer path to an edge between its end projections.

    Core-intersection cells count as zero-length paths and contribute the
    between-floor edges.  Coinciding contributions dedup to simple edges.
    """
    side = key.leaper.side
    t = (key.leaper.q - key.leaper.p - 1) // 2  # q - p = 2t + 1
    table = projections(key)
    edges: set[FoldEdge] = set()
    for a, b in outer_paths(key):
        if len(table[a]) != 1 or len(table[b]) != 1:
            c = a if len(table[a]) != 1 else b
            raise ConstructionError(
                f"outer path end {divmod(c, side)} has {len(table[c])} core projections, not 1"
            )
        (pa,), (pb,) = table[a], table[b]
        if pa == pb:
            raise ConstructionError(f"outer path {divmod(a, side)}-{divmod(b, side)} folds to a self-loop")
        edges.add(edge(pa, pb))
    edges.update(edge(*pair) for pair in table if len(pair) == 2)
    return TwoFloorGraph(t=t, edges=frozenset(edges))


def build_crisscross(m: int, n: int) -> TwoFloorGraph:
    """The two-floor graph R(m, n) on the (2t+1)^2 x 2 grid, m + n = 2t + 1.

    First-floor edges have types +-(m, n) and +-(-n, m); second-floor edges
    +-(n, m) and +-(-m, n); between-floor edges +-(+-m, m) and +-(+-n, n).
    Edges leaving the grid are clipped.
    """
    if m < 0 or n < 0 or not is_free(m, n):
        raise ValueError(f"invalid crisscross parameters ({m}, {n})")
    t = (m + n - 1) // 2

    # (from floor, to floor, move); each between-floor move and its negation
    # start on floor 1
    moves = [(1, 1, (m, n)), (1, 1, (-n, m)), (2, 2, (n, m)), (2, 2, (-m, n))]
    moves += [(1, 2, (s * vx, s * vy)) for vx, vy in ((m, m), (-m, m), (n, n), (-n, n)) for s in (1, -1)]

    edges: set[FoldEdge] = set()
    for x in range(-t, t + 1):
        for y in range(-t, t + 1):
            for f, g, (vx, vy) in moves:
                if -t <= x + vx <= t and -t <= y + vy <= t:
                    edges.add(edge((x, y, f), (x + vx, y + vy, g)))
    return TwoFloorGraph(t=t, edges=frozenset(edges))


def fold_params(leaper: Leaper) -> FoldParams:
    r = leaper.q - leaper.p
    m = leaper.p % r
    return FoldParams(r=r, m=m, n=r - m, h=leaper.p // r)


def check_fold(source: Leaper | KeyGraph) -> FoldReport:
    """Directly compare the folding graph with its expected crisscross graph.

    Takes a leaper, whose key graph it builds, or a key graph already built.
    """
    key = source if isinstance(source, KeyGraph) else build_key(source)
    params = fold_params(key.leaper)
    try:
        folding = build_folding(key)
    except OuterCycleError:
        return FoldReport(
            params, outer_acyclic=False, matches=False, folding_connected=False,
            folding=None, crisscross=None,
        )
    expected = build_crisscross(*params.expected)
    return FoldReport(
        params=params,
        outer_acyclic=True,
        matches=folding.edges == expected.edges,
        folding_connected=is_connected(folding),
        folding=folding,
        crisscross=expected,
    )


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


def is_connected(graph: TwoFloorGraph) -> bool:
    """True iff the edges connect the whole two-floor vertex grid."""
    return is_connected_edges(graph.vertices(), graph.edges)
