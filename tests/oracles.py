"""Reference implementations that the tests compare the package against."""

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import tee
from operator import add, getitem

from leapertour.fold import OuterCycleError, fold_params
from leapertour.geom import PencilSpec, edge, expand_pencil, is_free, reflect
from leapertour.keygraph import (
    ConstructionError,
    CycleTracker,
    _outer_pencils,
    build_cores,
    halving_ids,
)
from leapertour.splice import (
    Tour,
    _check_mirrored_bits,
    _rhombus_cells,
)
from leapertour.tile import Switch, rotate_edges_ccw, switch_candidates, translate_edges
from leapertour.verify import TourReport


def key_ids(leaper):
    """build_key's rhombus_ids, sorted outer_ids and membership, built as
    build_key once built them, without its checks: each rhombus pencil
    expanded from its core 0 by its four moves, each outer pencil expanded
    and mirrored three ways, and each cell's count of cores holding it."""
    p, q, side = leaper.p, leaper.q, leaper.side
    last, cores = side * side - 1, build_cores(leaper)
    rhombi = []
    for base, dirs in (
        (cores.forward[0], ((q, p), (p, q), (-q, -p), (-p, -q))),
        (cores.backward[0], ((q, -p), (-p, q), (-q, p), (p, -q))),
    ):
        paths = expand_pencil(PencilSpec(base, dirs), side)
        assert all(path[4] == path[0] for path in paths)
        rhombi += [path[:4] for path in paths]
    outer = []
    for spec in _outer_pencils(leaper):
        for path in expand_pencil(spec, side):
            vertical = reflect(path, side)
            for a, b in (path, vertical, [last - i for i in path], [last - i for i in vertical]):
                outer.append((min(a, b), max(a, b)))
    held = Counter(x * side + y for core in cores.all() for x, y in core.cells())
    return tuple(rhombi), sorted(outer), [held[i] for i in range(side * side)]


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


def id_adjacency(edges, n):
    """Neighbour lists of an undirected edge set on the ids 0 .. n - 1."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def components(adj):
    """The components of the graph on ids with these neighbour lists, each
    in depth-first order: a search independent of the package's
    disjoint-set tracker.

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


def format_grid(cells, width, height):
    """The grid formatter that looks up and pads each cell's visit number;
    the package's row templates must give the same bytes."""
    number = {c: i + 1 for i, c in enumerate(cells)}
    digits = len(str(width * height))
    rows = []
    for y in range(height - 1, -1, -1):
        rows.append(" ".join(f"{number[(x, y)]:>{digits}}" for x in range(width)))
    return "\n".join(rows) + "\n"


def format_structured(cells, p, q, width, height):
    """The tour-file formatter that prints each step as its own line; the
    package's per-coordinate string tables must give the same bytes."""
    lines = [f"{p} {q} {width} {height}"]
    lines.extend(f"{x} {y}" for x, y in cells)
    return "\n".join(lines) + "\n"


def parse_structured(text):
    """The tour-file reader that splits each line on any whitespace and
    converts each token with int(); the package's whole-text passes must
    give the same tuple, or raise ValueError with the same message."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty tour file")
    header = lines[0].split()
    if len(header) != 4:
        raise ValueError(f"bad header line {lines[0]!r}")
    p, q, width, height = map(int, header)
    cells = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad tour line {ln!r}")
        cells.append((int(parts[0]), int(parts[1])))
    return p, q, width, height, cells


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


def verify_tour(cells, p, q, width, height):
    """The validator that checks each cell and each step as a tuple; the
    package's int-key checks must give the same report, every field and
    first_failure included."""
    moves = {(sx * a, sy * b) for a, b in ((p, q), (q, p)) for sx in (1, -1) for sy in (1, -1)}
    n = len(cells)
    report = TourReport(
        cell_count_ok=(n == width * height),
        all_moves_legal=True,
        all_cells_once=True,
        closed=(n > 0),
        cells=cells, width=width, height=height,
    )
    if not report.cell_count_ok:
        report.first_failure = f"{n} cells listed, board has {width * height}"

    seen = set()
    for i, c in enumerate(cells):
        x, y = c
        if c in seen or not (0 <= x < width and 0 <= y < height):
            report.all_cells_once = False
            if report.first_failure is None:
                report.first_failure = f"cell {c} at index {i} repeated or off board"
            break
        seen.add(c)

    for i in range(n - 1):
        a, b = cells[i], cells[i + 1]
        if (b[0] - a[0], b[1] - a[1]) not in moves:
            report.all_moves_legal = False
            if report.first_failure is None:
                report.first_failure = f"illegal move {a} -> {b} at index {i}"
            break

    # a single cell closes with the null move, which is never a leaper move
    if n > 0:
        a, b = cells[-1], cells[0]
        if (b[0] - a[0], b[1] - a[1]) not in moves:
            report.closed = False
            if report.first_failure is None:
                report.first_failure = f"closing move {a} -> {b} is illegal"
    return report


# --- the splice engine on generic searches --------------------------------------


def id_pair(u, v):
    return (u, v) if u < v else (v, u)


def matchings(rhombus):
    """The two perfect matchings of the rhombus a, b, c, d as id pairs,
    smaller id first: matching 0 is {ab, cd} and matching 1 is {bc, da}."""
    a, b, c, d = rhombus
    return (id_pair(a, b), id_pair(c, d)), (id_pair(b, c), id_pair(d, a))


def matching_ids(key):
    """Each rhombus's two matchings, in rhombus order."""
    return tuple(map(matchings, key.rhombus_ids))


def id_cycle_partition(edges, n, height):
    """The cycle partition as a degree count over id_adjacency's neighbour
    lists and the generic components search; the package's walk over two
    neighbour arrays must give the same cycles and the same degree message."""
    adj = id_adjacency(edges, n)
    if list(map(len, adj)).count(2) != n:
        c = next(c for c, a in enumerate(adj) if len(a) != 2)
        raise ConstructionError(f"cell {divmod(c, height)} has degree {len(adj[c])}, expected 2")
    return components(adj)


def single_cycle(cycles, height, what):
    """The cells of a partition's one cycle; more raise, naming the second's first cell."""
    if len(cycles) != 1:
        cell = divmod(cycles[1][0], height)
        raise ConstructionError(f"{what} left {len(cycles)} cycles, the second from cell {cell}")
    return tuple(divmod(c, height) for c in cycles[0])


def tracked_halving(key, bits):
    """A copy of the bits and a tracker of the components of the halving
    they pick, each labelled with the id of its first cell, found by the
    generic search; the links between them go through the matching views,
    and the same search over the links checks that they reach every label."""
    roots = [0] * key.leaper.side ** 2
    for component in components(id_adjacency(halving_ids(key, bits), len(roots))):
        for c in component:
            roots[c] = component[0]
    links = [(roots[e1[0]], roots[e2[0]]) for e1, e2 in map(getitem, matching_ids(key), bits)]
    if not set(components(id_adjacency(links, len(roots)))[0]).issuperset(roots):
        raise ConstructionError("key graph is not connected")
    return list(bits), CycleTracker(roots)


def merge_flip(key, bits, tracker, i):
    """Flip rhombus i iff its matching edges lie in different sets of the
    tracker, recording their union; True iff it flipped."""
    e1, e2 = matchings(key.rhombus_ids[i])[bits[i]]
    merged = tracker.union(e1[0], e2[0])
    if merged:
        bits[i] ^= 1
    return merged


def single_tour(key, bits, what):
    """The tour the bits' halving forms, from the generic partition of the
    whole halving."""
    side = key.leaper.side
    return Tour(single_cycle(id_cycle_partition(halving_ids(key, bits), side * side, side), side, what))


def splice(key, bits):
    """The plain splice's pass of merge flips on the generic engine; the
    package's in-place flips must give the same tour."""
    bits, tracker = tracked_halving(key, bits)
    for i in range(len(key.rhombus_ids)):
        merge_flip(key, bits, tracker, i)
    return single_tour(key, bits, "splice")


def mirror_partners(key):
    """Index of each rhombus's central mirror, found by searching the key's
    rhombi for c*, d*, a*, b* (see splice._partners); None where it is
    missing."""
    last = key.leaper.side ** 2 - 1
    index = {r: i for i, r in enumerate(key.rhombus_ids)}
    return [index.get((last - c, last - d, last - a, last - b)) for a, b, c, d in key.rhombus_ids]


def symmetric_splice(key, bits=None):
    """The symmetric splice as a growth loop over the generic engine above:
    from the centre rhombus it grows a centrally symmetric cycle, at each
    step rescanning the rhombi in index order for the first one that
    straddles the grown cycle, then flipping it with its partner, or with
    its partner and the centre rhombus (a triple flip) when the cycle it
    reaches is its own mirror image.  bits is a centrally symmetric halving,
    the all-zero one by default.  The package's one pass over partner pairs
    must flip the same bits."""
    last = key.leaper.side ** 2 - 1
    matchings = matching_ids(key)
    partners = mirror_partners(key)
    bits, tracker = tracked_halving(key, [0] * len(partners) if bits is None else bits)
    find = tracker.find

    # the grown cycle holds all of r1, so it holds the anchor's mirror image,
    # and it stays centrally symmetric as long as the halving does; the
    # forward pencil comes first, so the first fixed rhombus is r1
    i1 = next(i for i, j in enumerate(partners) if i == j)
    anchor = key.rhombus_ids[i1][0]
    merge_flip(key, bits, tracker, i1)

    while True:
        grown = find(anchor)
        for i, pair in enumerate(matchings):
            m1, m2 = pair[bits[i]]
            if (find(m1[0]) == grown) != (find(m2[0]) == grown):
                break
        else:
            break

        j, pending = partners[i], _rhombus_cells(key, i)
        if j == i:
            raise ConstructionError(f"self-symmetric rhombus {pending} straddles the grown cycle")
        out_edge = m2 if find(m1[0]) == grown else m1
        out_star = (last - out_edge[1], last - out_edge[0])
        absorbed, star_cycle = find(out_edge[0]), find(out_star[0])
        if out_star not in matchings[j][bits[j]] or star_cycle == grown:
            raise ConstructionError(f"partner rhombus does not mirror the pending rhombus {pending}")

        if star_cycle == absorbed:
            # both loose edges on one cycle: a triple flip merges it in
            for k in (i1, i, j):
                bits[k] ^= 1
            merged = {c for c in range(last + 1) if find(c) in (grown, absorbed)}
            cycles = id_cycle_partition(halving_ids(key, bits), last + 1, key.leaper.side)
            if set(next(c for c in cycles if anchor in c)) != merged:
                raise ConstructionError(
                    f"symmetric splice triple flip failed to grow the cycle at rhombus {pending}"
                )
            tracker.union(anchor, out_edge[0])
        elif not (merge_flip(key, bits, tracker, i) and merge_flip(key, bits, tracker, j)):
            raise ConstructionError(
                f"symmetric splice paired flips failed to grow the cycle at rhombus {pending}"
            )

    _check_mirrored_bits(key, bits, partners)
    return single_tour(key, bits, "symmetric splice")


# --- the tiling on an id edge set ---------------------------------------------


def old_edges(sw):
    """The tour edges ab and cd that a switch removes."""
    return (edge(sw.a, sw.b), edge(sw.c, sw.d))


def new_edges(sw):
    """The moves bc and da that a switch adds."""
    return (edge(sw.b, sw.c), edge(sw.d, sw.a))


def first_avoiding(candidates, avoid):
    """The first switch none of whose four edges is in avoid, or None."""
    for sw in candidates:
        if not any(e in avoid for e in old_edges(sw) + new_edges(sw)):
            return sw
    return None


def shift(sw, dx, dy):
    return Switch(*((x + dx, y + dy) for x, y in (sw.a, sw.b, sw.c, sw.d)))


def tile(leaper, k, l, base):
    """The tiling on the board's id edge set: the placed copies as id pairs
    x * height + y, each seam's first switch that avoids the set of edges
    earlier switches used, applied by set difference and union, and one
    generic partition of the whole board as the proof of the tour.  The
    package's in-place flips on neighbour arrays must give the same tour."""
    side = leaper.side
    if k == 1 and l == 1:
        return base
    base_edges = base.edge_set()
    copies = (base_edges, rotate_edges_ccw(base_edges, side))
    height = l * side

    def ids(edges):
        return [(a[0] * height + a[1], b[0] * height + b[1]) for a, b in edges]

    origin = [ids(edges) for edges in copies]
    board = set()
    for i in range(k):
        for j in range(l):
            offset = (i * height + j) * side
            board.update([(a + offset, b + offset) for a, b in origin[(i + j) % 2]])
    tree = [((i, j), (i + 1, j)) for j in range(l) for i in range(k - 1)]
    tree += [((0, j), (0, j + 1)) for j in range(l - 1)]
    seams, used = {}, set()
    for (i, j), (i2, j2) in tree:
        di, dj, parity = i2 - i, j2 - j, (i + j) % 2
        kind = (di, dj, parity)
        if kind not in seams:
            upper = translate_edges(copies[1 - parity], di * side, dj * side)
            seams[kind] = switch_candidates(copies[parity], upper, leaper)
        seams[kind], found = tee(seams[kind])
        sw = first_avoiding((shift(s, i * side, j * side) for s in found), used)
        if sw is None:
            raise ConstructionError(
                f"no switch found between copies ({i}, {j}) and ({i2}, {j2}) of the base tour"
            )
        board.difference_update(ids(old_edges(sw)))
        board.update(ids(new_edges(sw)))
        used.update(old_edges(sw) + new_edges(sw))
    cycles = id_cycle_partition(board, k * height * side, height)
    return Tour(single_cycle(cycles, height, f"{k}x{l} tiling of the base tour"))


# --- the fold on (x, y, floor) tuples -----------------------------------------


def fold_ids(t, vertices):
    """The ids of two-floor vertices (x, y, floor) on the grid of half-width
    t, as the package numbers them; id order is vertex order."""
    w = 2 * t + 1
    return tuple(((x + t) * w + y + t) * 2 + f - 1 for x, y, f in vertices)


@dataclass(frozen=True)
class TupleTwoFloorGraph:
    """A two-floor graph whose edges are (x, y, floor) tuple pairs."""

    t: int  # grid half-width
    edges: frozenset

    def vertices(self):
        t = self.t
        return [
            (x, y, f)
            for x in range(-t, t + 1)
            for y in range(-t, t + 1)
            for f in (1, 2)
        ]


def projections(key):
    """The fold vertices of each cell id: floor 1 for a forward core, floor 2
    for a backward one, and none for a cell outside every core.  A cell at
    position (x + t, y + t) within a core projects to (x, y).
    """
    side = key.leaper.side
    t = (key.leaper.q - key.leaper.p - 1) // 2
    table = [()] * side ** 2
    for floor, group in ((1, key.cores.forward), (2, key.cores.backward)):
        for core in group:
            for x in range(core.x1, core.x2):
                for y in range(core.y1, core.y2):
                    table[x * side + y] += ((x - core.x1 - t, y - core.y1 - t, floor),)
    return table


def projection_ids(key):
    """The fold vertex ids of each cell id, as the package's fold once
    tabled them: floor 1 for a forward core, floor 2 for a backward one,
    and none for a cell outside every core.  A cell at position (x + t,
    y + t) within a core projects to (x, y), so a core column's cells
    project to every second id from its first."""
    side = key.leaper.side
    w = key.leaper.q - key.leaper.p
    table = [()] * side ** 2
    for floor, group in ((0, key.cores.forward), (1, key.cores.backward)):
        for core in group:
            for i, x in enumerate(range(core.x1, core.x2)):
                s, v = x * side + core.y1, 2 * w * i + floor
                table[s:s + w] = map(add, table[s:s + w], zip(range(v, v + 2 * w, 2)))
    return table


def folding_ids(key, paths):
    """The folding graph's ids, as the package's fold once found them from
    projection_ids: each cell of two projections joins them, and each of
    the outer paths, given by their end ids, joins its ends' one projection
    each."""
    table = projection_ids(key)
    ids = {tuple(sorted(pair)) for pair in table if len(pair) == 2}
    for a, b in paths:
        (pa,), (pb,) = table[a], table[b]
        ids.add((min(pa, pb), max(pa, pb)))
    return frozenset(ids)


def outer_paths(key):
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


def build_folding(key):
    """Contract each outer path to an edge between its end projections.

    Core-intersection cells count as zero-length paths and contribute the
    between-floor edges.  Coinciding contributions dedup to simple edges.
    """
    side = key.leaper.side
    t = (key.leaper.q - key.leaper.p - 1) // 2  # q - p = 2t + 1
    table = projections(key)
    edges = set()
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
    return TupleTwoFloorGraph(t=t, edges=frozenset(edges))


def build_crisscross(m, n):
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

    edges = set()
    for x in range(-t, t + 1):
        for y in range(-t, t + 1):
            for f, g, (vx, vy) in moves:
                if -t <= x + vx <= t and -t <= y + vy <= t:
                    edges.add(edge((x, y, f), (x + vx, y + vy, g)))
    return TupleTwoFloorGraph(t=t, edges=frozenset(edges))


def is_connected(graph):
    """True iff the edges connect the whole two-floor vertex grid, by the
    generic search over the vertices' indices."""
    index = {v: i for i, v in enumerate(graph.vertices())}
    return len(components(id_adjacency([(index[a], index[b]) for a, b in graph.edges], len(index)))) <= 1


def check_fold(key):
    """The fold check on tuple graphs: (outer_acyclic, matches,
    folding_connected, folding, crisscross), the graphs None when the
    outer graph has a cycle.  The package's id fold must give the same
    flags and the same tuple edges."""
    try:
        folding = build_folding(key)
    except OuterCycleError:
        return False, False, False, None, None
    expected = build_crisscross(*fold_params(key.leaper).expected)
    return True, folding.edges == expected.edges, is_connected(folding), folding, expected
