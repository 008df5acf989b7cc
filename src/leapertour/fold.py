"""Folding and crisscross graphs: the connectivity side of the construction.

The key graph folds onto a small two-floor graph: the four forward cores
stack into the first floor, the four backward cores into the second, and
every maximal path of the outer graph contracts to a single edge between
the projections of its endpoints.  The folded graph always coincides with
an explicitly defined "crisscross" graph R(m, n), which in turn is
connected for every admissible pair (m, n).  Both facts are checked here
per instance by direct computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geom import Cell, Leaper, edge
from .keygraph import (
    ConstructionError,
    Cores,
    KeyGraph,
    build_key,
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


def project(cell: Cell, cores: Cores) -> tuple[FoldVertex, ...]:
    """Projections of a core cell: floor 1 for forward, floor 2 for backward.

    A cell at position (x + s, y + s) within a core projects to (x, y);
    cells in a core intersection have one projection on each floor.
    """
    out: list[FoldVertex] = []
    for floor, group in ((1, cores.forward), (2, cores.backward)):
        for core in group:
            if cell in core:
                s = (core.x2 - core.x1 - 1) // 2
                out.append((cell[0] - core.x1 - s, cell[1] - core.y1 - s, floor))
                break
    if not out:
        raise ValueError(f"cell {cell} lies in no core")
    return tuple(out)


class OuterCycleError(ConstructionError):
    """The outer graph contains a cycle, so it does not fold."""


def outer_paths(key: KeyGraph) -> list[tuple[Cell, Cell]]:
    """Endpoint pairs of the maximal paths of the outer graph.

    Raises OuterCycleError if the outer graph contains a cycle; isolated
    cells (core intersections) are not included.  The walk runs on the
    key's cell ids, and only the endpoints turn into cells.
    """
    adj = id_adjacency(key.outer_ids, key.leaper.side ** 2)
    paths = []
    seen: set[int] = set()
    for start in (c for c, nbrs in enumerate(adj) if len(nbrs) == 1):
        if start in seen:
            continue
        seen.add(start)
        prev, cur = start, adj[start][0]
        while True:
            seen.add(cur)
            nbrs = adj[cur]
            if len(nbrs) == 1:
                break
            nxt = nbrs[1] if nbrs[0] == prev else nbrs[0]
            prev, cur = cur, nxt
        paths.append((divmod(start, key.leaper.side), divmod(cur, key.leaper.side)))
    if len(seen) != len(adj) - adj.count([]):
        raise OuterCycleError("outer graph contains a cycle")
    return paths


def build_folding(key: KeyGraph) -> TwoFloorGraph:
    """Contract each outer path to an edge between its endpoint projections.

    Core-intersection cells count as zero-length paths and contribute the
    between-floor edges.  Coinciding contributions dedup to simple edges.
    """
    t = (key.leaper.q - key.leaper.p - 1) // 2  # q - p = 2t + 1
    edges: set[FoldEdge] = set()
    for a, b in outer_paths(key):
        pa, pb = project(a, key.cores), project(b, key.cores)
        if len(pa) != 1 or len(pb) != 1:
            raise ConstructionError(f"outer path endpoint {a if len(pa) != 1 else b} in two cores")
        if pa[0] == pb[0]:
            raise ConstructionError(f"outer path {a}-{b} folds to a self-loop")
        edges.add(edge(pa[0], pb[0]))
    for i, e in enumerate(key.membership):
        if e == 2:
            p1, p2 = project(divmod(i, key.leaper.side), key.cores)
            edges.add(edge(p1, p2))
    return TwoFloorGraph(t=t, edges=frozenset(edges))


def build_crisscross(m: int, n: int) -> TwoFloorGraph:
    """The two-floor graph R(m, n) on the (2t+1)^2 x 2 grid, m + n = 2t + 1.

    First-floor edges have types +-(m, n) and +-(-n, m); second-floor edges
    +-(n, m) and +-(-m, n); between-floor edges +-(+-m, m) and +-(+-n, n).
    Edges leaving the grid are clipped.
    """
    if m < 0 or n < 0 or (m + n) % 2 == 0 or math.gcd(m - n, m + n) != 1:
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
    if math.gcd(m - n, m + n) != 1:
        raise ValueError(f"({m}, {n}) not admissible")
    if 3 * m < n:
        reduced = (m, n - 2 * m)
    elif 2 * m <= n:
        reduced = (n - 2 * m, m)
    else:
        reduced = (2 * m - n, m)
    mp, np_ = reduced
    assert mp < np_ and mp + np_ < m + n and math.gcd(mp - np_, mp + np_) == 1
    return reduced


def is_connected(graph: TwoFloorGraph) -> bool:
    """True iff the edges connect the whole two-floor vertex grid."""
    return is_connected_edges(graph.vertices(), graph.edges)
