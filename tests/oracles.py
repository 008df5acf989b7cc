"""Reference implementations that the tests compare the package against."""

from collections import defaultdict

from leapertour.geom import edge
from leapertour.keygraph import ConstructionError


def rhombus_matching(r, bit):
    """One of the two perfect matchings (opposite edges) of a rhombus's
    4-cycle a, b, c, d: {ab, cd} for bit 0 and {bc, da} for bit 1."""
    a, b, c, d = r.cells
    if bit == 0:
        return (edge(a, b), edge(c, d))
    return (edge(b, c), edge(d, a))


def adjacency(edges):
    """Neighbour lists of an undirected edge set; absent vertices read as []."""
    adj = defaultdict(list)
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def cycle_partition(edges):
    """Split a degree-2 edge set over any sortable vertices (cells, ids)
    into cycles, each from its smallest vertex toward the smaller of that
    vertex's two neighbours.  The package's partition over cell ids must
    give the same cycles."""
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
