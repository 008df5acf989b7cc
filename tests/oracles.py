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


def format_svg(cells, width, height):
    """The SVG formatter that prints every polygon point as a float pair;
    the package's per-coordinate string tables must give the same bytes."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width * 24}" height="{height * 24}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        '<g stroke="#ccc" stroke-width="0.02">',
    ]
    for x in range(width + 1):
        parts.append(f'<line x1="{x}" y1="0" x2="{x}" y2="{height}"/>')
    for y in range(height + 1):
        parts.append(f'<line x1="0" y1="{y}" x2="{width}" y2="{y}"/>')
    parts.append("</g>")
    # SVG y grows downward; board y grows upward.
    points = " ".join(f"{x + 0.5},{height - 1 - y + 0.5}" for x, y in cells)
    parts.append(
        f'<polygon points="{points}" fill="none" stroke="black" stroke-width="0.08" '
        'stroke-linejoin="round"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
