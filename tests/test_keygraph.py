import dataclasses
import re
from collections import Counter, defaultdict
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leapertour.keygraph as keygraph
from leapertour.cli import free_leapers, main
from leapertour.geom import Leaper, PencilError, PencilSpec, Subboard, edge, reflect
from leapertour.keygraph import (
    ConstructionError,
    Cores,
    Rhombus,
    build_cores,
    build_inner,
    build_key,
    build_outer,
    CycleTracker,
    cycle_partition,
    halve,
    halving_ids,
    is_connected_edges,
    neighbour_arrays,
)
from leapertour.splice import random_bits, splice, symmetric_splice
from oracles import cycle_partition as oracle_partition
from oracles import key_ids as oracle_key_ids
from oracles import matching_ids, rhombus_matching

FREE_SMALL = [(1, 2), (2, 3), (1, 4), (3, 4), (2, 5), (4, 5), (1, 6), (5, 6), (2, 7), (4, 7)]


def test_cores_2_5_positions():
    cores = build_cores(Leaper(2, 5))
    assert cores.forward[0] == Subboard(2, 5, 2, 5)
    assert cores.backward[2] == Subboard(7, 10, 7, 10)


def test_cores_3_4_all_disjoint():
    cores = build_cores(Leaper(3, 4))
    boards = cores.all()
    for i, a in enumerate(boards):
        for b in boards[i + 1:]:
            assert set(a.cells()).isdisjoint(b.cells())


def test_cores_2_5_overlap_pattern():
    cores = build_cores(Leaper(2, 5))
    assert set(cores.forward[0].cells()) & set(cores.backward[0].cells()) == {(4, 4)}
    # only the like-index forward/backward pairs overlap when 2p < q
    for i, a in enumerate(cores.forward):
        for j, b in enumerate(cores.backward):
            assert (not set(a.cells()).isdisjoint(b.cells())) == (i == j)


@pytest.mark.parametrize("p,q", FREE_SMALL)
def test_core_side_is_q_minus_p(p, q):
    for core in build_cores(Leaper(p, q)).all():
        assert core.x2 - core.x1 == q - p
        assert core.y2 - core.y1 == q - p


def test_inner_2_5_counts():
    pencils, families = build_inner(Leaper(2, 5))
    assert [len(pencil) for pencil in pencils] == [9, 9]  # 2 * (q-p)^2 rhombi
    assert len(families) == 8  # 4 steps per pencil
    assert sum((x2 - x1) * (y2 - y1) for _, x1, x2, y1, y2 in families) == 72  # 4 edges each
    assert keygraph._first_shared(families, 14) is None  # none shared


def test_forward_rhombus_at_pp():
    p, q = 2, 5
    side = 2 * (p + q)
    (forward, _), _ = build_inner(Leaper(p, q))
    (r,) = [r for r in forward if r[0] == p * side + p]
    cells = tuple(divmod(i, side) for i in r)
    assert cells == ((p, p), (p + q, 2 * p), (2 * p + q, 2 * p + q), (2 * p, p + q))


@pytest.mark.parametrize("p,q", FREE_SMALL)
def test_outer_size_and_reflection_invariance(p, q):
    leaper = Leaper(p, q)
    side, last = leaper.side, leaper.side ** 2 - 1
    outer, _, families = build_outer(leaper)  # a list: the 24 reflected pencils are disjoint
    assert len(outer) == len(set(outer)) == 16 * p * q
    assert len(families) == 24 and keygraph._first_shared(families, side) is None
    assert all(a < b for a, b in outer)
    ends = list(zip(*outer))
    vertical = [reflect(column, side) for column in ends]
    # the vertical, central (id i to last - i) and horizontal mirrors
    for a, b in (vertical, [[last - i for i in c] for c in ends], [[last - i for i in c] for c in vertical]):
        assert set(map(tuple, map(sorted, zip(a, b)))) == set(outer)


def test_outer_degree_examples_2_5():
    leaper = Leaper(2, 5)
    key = build_key(leaper)
    deg = defaultdict(int)
    for a, b in key.outer_edges:
        deg[a] += 1
        deg[b] += 1
    assert key.core_membership[(0, 0)] == 0 and deg[(0, 0)] == 2
    # core-intersection cell has outer degree 0
    assert key.core_membership[(4, 4)] == 2 and deg[(4, 4)] == 0


@pytest.mark.parametrize("p,q", FREE_SMALL)
def test_key_degree_formula_exhaustive(p, q):
    leaper = Leaper(p, q)
    key = build_key(leaper)  # build_key itself asserts deg_I = 2e, deg_O = 2 - e
    deg = defaultdict(int)
    for a, b in key.edges:
        deg[a] += 1
        deg[b] += 1
    for cell, e in key.core_membership.items():
        assert deg[cell] == 2 + e
    assert not key.inner_edges & key.outer_edges


def test_key_1_2_has_36_cells():
    key = build_key(Leaper(1, 2))
    assert len(key.core_membership) == 36


@pytest.mark.parametrize("p,q", FREE_SMALL)
def test_key_graph_connected(p, q):
    key = build_key(Leaper(p, q))
    side = key.leaper.side
    cells = [(x, y) for x in range(side) for y in range(side)]
    assert is_connected_edges(cells, key.edges)


def test_halve_all_zero_2_5():
    key = build_key(Leaper(2, 5))
    two = halve(key, [0] * len(key.rhombi))
    assert sum(len(c) for c in two.cycles) == 196


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=18, max_size=18))
def test_halve_any_choice_is_two_factor(bits):
    key = build_key(Leaper(2, 5))
    two = halve(key, bits)  # halve raises if any degree differs from 2
    assert key.outer_edges <= two.edges


def test_flipping_one_bit_changes_four_edges():
    key = build_key(Leaper(2, 5))
    bits = [0] * len(key.rhombi)
    a = halve(key, bits)
    bits[3] = 1
    b = halve(key, bits)
    assert len(a.edges ^ b.edges) == 4


def test_cycle_partition_is_canonical():
    key = build_key(Leaper(1, 2))
    two = halve(key, [0] * len(key.rhombi))
    for cyc in two.cycles:
        assert cyc[0] == min(cyc)
        assert cyc[1] < cyc[-1]


@lru_cache(maxsize=None)
def _cached_key(p, q):
    return build_key(Leaper(p, q))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(free_leapers(21)), st.integers(0, 2**32 - 1))
def test_id_partition_equals_the_tuple_oracle_on_halvings(pq, seed):
    key = _cached_key(*pq)
    side = key.leaper.side
    edges = list(halving_ids(key, random_bits(len(key.rhombus_ids), seed)))
    cycles = cycle_partition(*neighbour_arrays(edges, side * side))
    assert list(map(tuple, cycles)) == list(oracle_partition(edges))
    cells = [(divmod(a, side), divmod(b, side)) for a, b in edges]
    assert [tuple(divmod(c, side) for c in cycle) for cycle in cycles] == list(oracle_partition(cells))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 30).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40) if n else st.just([]),
        )
    )
)
def test_connectivity_answers_are_the_networkx_ones(nx, graph_spec):
    # the tracker's answers: is_connected_edges, with the empty graph
    # connected; the merge count; and first_apart, which the failure messages
    # name as the second component's first id: the smallest off id 0's
    n, edges = graph_spec
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    connected = n == 0 or nx.is_connected(graph)
    assert is_connected_edges(range(n), edges) == connected
    if not connected:
        tracker = CycleTracker(list(range(n)))
        assert tracker.join(edges) == n - nx.number_connected_components(graph)
        assert tracker.first_apart() == min(set(range(n)) - nx.node_connected_component(graph, 0))


def in_core(cell, core):
    """True iff the cell lies in the core's half-open rectangle."""
    x, y = cell
    return core.x1 <= x < core.x2 and core.y1 <= y < core.y2


def test_core_membership_counts_the_cores_holding_each_cell():
    for p, q in FREE_SMALL + [(6, 13)]:
        key = build_key(Leaper(p, q))
        cores = key.cores.all()
        for cell, e in key.core_membership.items():
            assert e == sum(in_core(cell, core) for core in cores), (p, q, cell)


def test_build_key_tests_no_cell_against_a_core(monkeypatch):
    # a Subboard has no membership test; the one installed here counts any
    # that build_key would make
    calls = []

    def counting_contains(self, cell):
        calls.append(cell)
        return in_core(cell, self)

    monkeypatch.setattr(Subboard, "__contains__", counting_contains, raising=False)
    build_key(Leaper(12, 25))
    assert calls == []


@pytest.mark.parametrize("p,q", [(1, 2), (2, 5), (4, 9)])
def test_id_view_names_the_same_edges(p, q):
    key = build_key(Leaper(p, q))
    side = key.leaper.side

    def cells(e):
        return (divmod(e[0], side), divmod(e[1], side))

    assert all(a < b for a, b in key.outer_ids)
    assert {cells(e) for e in key.outer_ids} == key.outer_edges
    # a halving is the outer edges, then each rhombus's matching by its bit
    for bit in (0, 1):
        halving = [edge(*cells(e)) for e in halving_ids(key, [bit] * len(key.rhombi))]
        assert halving[:len(key.outer_ids)] == [cells(e) for e in key.outer_ids]
        assert halving[len(key.outer_ids):] == [e for r in key.rhombi for e in rhombus_matching(r, bit)]


def test_tuple_view_follows_replaced_ids():
    key = build_key(Leaper(2, 5))
    assert key.rhombi and key.outer_edges  # derive the originals first
    bare = dataclasses.replace(key, rhombus_ids=key.rhombus_ids[:3], outer_ids=())
    assert bare.outer_edges == frozenset()
    assert bare.rhombi == key.rhombi[:3]
    assert bare.inner_edges == frozenset(e for r in key.rhombi[:3] for e in r.edges())


def _family_edges(family, side):
    """The edges (i, i + d) of a family, for each id i of its rectangle."""
    d, x1, x2, y1, y2 = family
    return [(x * side + y, x * side + y + d) for x in range(x1, x2) for y in range(y1, y2)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(free_leapers(41)))
def test_families_are_the_stored_edges_and_pairwise_disjoint(pq):
    # the premise of build_key's distinctness proof, on the edges it stores
    leaper = Leaper(*pq)
    key, side = build_key(leaper), leaper.side
    inner, outer = build_inner(leaper)[1], build_outer(leaper)[2]
    rhombus_edges = [tuple(sorted(e)) for r in key.rhombus_ids for e in zip(r, r[1:] + r[:1])]
    assert sorted(e for f in inner for e in _family_edges(f, side)) == sorted(rhombus_edges)
    assert sorted(e for f in outer for e in _family_edges(f, side)) == sorted(key.outer_ids)
    edges = [e for f in inner + outer for e in _family_edges(f, side)]
    assert len(set(edges)) == len(edges)
    assert keygraph._first_shared(inner + outer, side) is None


# a step d of 1 or 2, and a rectangle (x, y, width, height) that lies on the 8 x 8 board
FAMILY = st.tuples(st.integers(1, 2), st.integers(0, 4), st.integers(0, 4), st.integers(1, 3), st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(st.lists(FAMILY, min_size=2, max_size=4))
def test_families_meet_iff_they_share_an_edge(specs):
    # _first_shared finds a shared edge iff two families' edges meet, and
    # it is the smallest such edge, with the earliest family holding it and
    # a later one
    families = [(d, x, x + w, y, y + h) for d, x, y, w, h in specs]
    edges = [set(_family_edges(f, 8)) for f in families]
    shared = [(e, i) for i, a in enumerate(edges) for b in edges[i + 1:] for e in a & b]
    found = keygraph._first_shared(families, 8)
    assert (found is None) == (not shared)
    if shared:
        (a, b), i = min(shared)
        assert found == ((divmod(a, 8), divmod(b, 8)), i)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9), st.data())
def test_mirror_rectangle_is_the_reversed_mirror_of_its_ids(side, data):
    # the premise of build_key's mirror check on cores: the ids of a
    # rectangle's mirror, in row order, are side**2 - 1 less its own ids, reversed
    x1, x2 = sorted(data.draw(st.lists(st.integers(0, side), min_size=2, max_size=2, unique=True)))
    y1, y2 = sorted(data.draw(st.lists(st.integers(0, side), min_size=2, max_size=2, unique=True)))
    rect, last = Subboard(x1, x2, y1, y2), side * side - 1

    def ids(r):
        return [x * side + y for x, y in r.cells()]

    assert ids(keygraph._mirror(rect, side)) == [last - i for i in reversed(ids(rect))]


# Guards for build_key's invariants.  Each patches the table of outer
# pencils, the cores, or the rhombus moves, so that exactly one check
# fires, and asserts that check's message.


def _patch_outer(monkeypatch, change):
    real = keygraph._outer_pencils

    def patched(leaper):
        specs = real(leaper)
        change(specs, leaper.p, leaper.q, leaper.side)
        return specs

    monkeypatch.setattr(keygraph, "_outer_pencils", patched)


def _patch_cores(monkeypatch, change):
    """Make keygraph.build_cores return the eight cores, forward first, as
    change(cores) edits their list."""
    real = keygraph.build_cores

    def patched(leaper):
        cores = list(real(leaper).all())
        change(cores)
        return Cores(tuple(cores[:4]), tuple(cores[4:]))

    monkeypatch.setattr(keygraph, "build_cores", patched)


def _patch_forward_moves(monkeypatch, change):
    """Make keygraph._rhombus_moves return the forward rhombus's moves as change(moves) edits their list."""
    real = keygraph._rhombus_moves

    def patched(leaper):
        forward, backward = real(leaper)
        forward = list(forward)
        change(forward)
        return tuple(forward), backward

    monkeypatch.setattr(keygraph, "_rhombus_moves", patched)


def test_pencil_off_the_board_names_the_cell(monkeypatch):
    def push_off(specs, p, q, side):
        # pencil A's base moved right until its move (q, p) leaves the board
        specs[0] = PencilSpec(Subboard(side - q, side - q + p, 0, q), ((q, p),))

    _patch_outer(monkeypatch, push_off)
    with pytest.raises(PencilError) as exc:
        build_key(Leaper(2, 5))
    assert exc.value.cell == (14, 2)
    assert str(exc.value) == "pencil path leaves the 14x14 board at (14, 2)"


@pytest.mark.parametrize("wrap", [False, True], ids=["plain", "wrap-around"])
def test_non_leaper_move_names_the_edge(monkeypatch, wrap):
    def bend(specs, p, q, side):
        if wrap:
            # (p + 1, q - side) has the id difference of the move (p, q)
            specs[2] = PencilSpec(Subboard(0, p, side - p, side), ((p + 1, q - side),))
        else:
            specs[0] = PencilSpec(Subboard(0, p, 0, q), ((q, p + 1),))

    _patch_outer(monkeypatch, bend)
    with pytest.raises(ConstructionError, match=r"^illegal move ") as exc:
        build_key(Leaper(2, 5))
    named = re.fullmatch(r"illegal move \((\d+), (\d+)\)-\((\d+), (\d+)\)", str(exc.value))
    x, y, u, v = map(int, named.groups())
    assert (u - x, v - y) not in Leaper(2, 5).directions()
    assert (x, y) < (u, v)


def test_pencil_repeating_a_rhombus_edge_overlaps(monkeypatch):
    def repeat_rhombus_edge(specs, p, q, side):
        specs.append(PencilSpec(Subboard(p, p + 1, p, p + 1), ((q, p),)))

    _patch_outer(monkeypatch, repeat_rhombus_edge)
    with pytest.raises(
        ConstructionError, match=r"^inner and outer graphs share the edge \(\(2, 2\), \(7, 4\)\)$"
    ):
        build_key(Leaper(2, 5))


def test_dropped_pencil_is_named_by_the_degree_check(monkeypatch):
    # 120 outer edges instead of 16pq = 160: the degree check implies the count
    _patch_outer(monkeypatch, lambda specs, p, q, side: specs.pop(0))
    with pytest.raises(
        ConstructionError,
        match=r"^degree mismatch at \(0, 0\): membership 0, inner 0, outer 1$",
    ):
        build_key(Leaper(2, 5))


def test_repeated_pencil_is_named_by_the_degree_check(monkeypatch):
    # spec 0 twice: its edges, and those of its reflections, counted twice
    _patch_outer(monkeypatch, lambda specs, p, q, side: specs.append(specs[0]))
    with pytest.raises(
        ConstructionError,
        match=r"^degree mismatch at \(0, 0\): membership 0, inner 0, outer 3$",
    ):
        build_key(Leaper(2, 5))


def test_repeat_with_balanced_degrees_names_the_edge(monkeypatch):
    # the outer edges (a, x) and (b, y) become (a, b) again and (x, y): every
    # degree stays, and the new edges join the families as one-cell steps,
    # so only the families' rectangle test sees the repeat
    real = keygraph.build_outer

    def rewired(leaper):
        outer, degrees, families = real(leaper)
        a, b = outer[0]
        (x,) = (v for e in outer if a in e and b not in e for v in e if v != a)
        (y,) = (v for e in outer if b in e and a not in e for v in e if v != b)
        added = [(a, b), (min(x, y), max(x, y))]
        cells = [divmod(i, leaper.side) for i, _ in added]
        steps = [(j - i, u, u + 1, v, v + 1) for (i, j), (u, v) in zip(added, cells)]
        return [e for e in outer if {a, x} != set(e) != {b, y}] + added, degrees, families + steps

    monkeypatch.setattr(keygraph, "build_outer", rewired)
    with pytest.raises(
        ConstructionError, match=r"^outer graph repeats the edge \(\(0, 0\), \(5, 2\)\)$"
    ):
        build_key(Leaper(2, 5))


def test_shifted_pencil_fails_the_degree_check(monkeypatch):
    def shift(specs, p, q, side):
        specs[0] = PencilSpec(Subboard(0, p, 1, q + 1), ((q, p),))

    _patch_outer(monkeypatch, shift)
    with pytest.raises(
        ConstructionError,
        match=r"^degree mismatch at \(0, 0\): membership 0, inner 0, outer 1$",
    ):
        build_key(Leaper(2, 5))


def test_open_rhombus_pencil_names_its_first_cell(monkeypatch):
    # the closing move (-p, -q) bent to (-p, 1 - q): step 3 takes forward
    # core 3, [4, 7) x [7, 10), to [2, 5) x [3, 6), which leaves the row
    # y = 2 of core 0 = [2, 5) x [2, 5), from (2, 2)
    _patch_forward_moves(monkeypatch, lambda moves: moves.__setitem__(3, (-2, -4)))
    with pytest.raises(ConstructionError, match=r"^step 3 of the forward rhombi takes core 3 off core 0 at \(2, 2\)$"):
        build_key(Leaper(2, 5))


@pytest.mark.parametrize(
    "k,core,message",
    [
        (1, Subboard(7, 10, 5, 8), "step 0 of the forward rhombi takes core 0 off core 1 at (7, 4)"),
        (6, Subboard(7, 10, 7, 9), "step 1 of the backward rhombi takes core 1 off core 2 at (7, 9)"),
        (7, Subboard(2, 5, 9, 13), "step 2 of the backward rhombi takes core 2 off core 3 at (2, 12)"),
    ],
    ids=["moved", "shrunk", "grown"],
)
def test_core_off_its_step_names_the_first_cell_it_misses(monkeypatch, k, core, message):
    # forward core 1, [7, 10) x [4, 7), moved up one cell, backward core 2,
    # [7, 10) x [7, 10), one row short, and backward core 3, [2, 5) x
    # [9, 12), one row long: the step into each names the first cell, in
    # row order, of the core before it moved by the step's move or of the
    # core, that is not in the other
    _patch_cores(monkeypatch, lambda cores: cores.__setitem__(k, core))
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        build_key(Leaper(2, 5))


@pytest.mark.parametrize(
    "k,core,message",
    [
        (2, Subboard(12, 15, 9, 12), "forward core 2 leaves the 14x14 board at (14, 9)"),
        (5, Subboard(9, 12, -1, 2), "backward core 1 leaves the 14x14 board at (9, -1)"),
    ],
    ids=["right", "below"],
)
def test_core_off_the_board_names_its_first_cell_off_it(monkeypatch, k, core, message):
    # forward core 2, [9, 12) x [9, 12), and backward core 1, [9, 12) x
    # [2, 5), pushed off the board: the cores are checked before any step
    _patch_cores(monkeypatch, lambda cores: cores.__setitem__(k, core))
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        build_key(Leaper(2, 5))


def test_bent_rhombus_move_followed_by_its_core_names_the_edge(monkeypatch):
    # forward steps 0 and 1 bent to (5, 3) and (2, 4), which still sum to
    # (7, 7), with core 1, [7, 10) x [4, 7), moved up one cell to follow:
    # every step takes its core onto the next, and the corner pair of step
    # 0 is named as no leaper move
    _patch_forward_moves(monkeypatch, lambda moves: moves.__setitem__(slice(0, 2), [(5, 3), (2, 4)]))
    _patch_cores(monkeypatch, lambda cores: cores.__setitem__(1, Subboard(7, 10, 5, 8)))
    with pytest.raises(ConstructionError, match=r"^illegal move \(2, 2\)-\(7, 5\)$"):
        build_key(Leaper(2, 5))


def _repeat_rhombus_step(monkeypatch):
    """List the forward pencil's step 0 twice among the rhombus families.
    Its vertices still run over their cores, so only the families test sees it."""
    real = keygraph.build_inner

    def repeated(leaper):
        pencils, families = real(leaper)
        return pencils, families + families[:1]

    monkeypatch.setattr(keygraph, "build_inner", repeated)


def test_repeated_rhombus_names_the_shared_edge(monkeypatch):
    # a rhombus step listed twice shares every edge with itself, and the
    # families test names the first
    _repeat_rhombus_step(monkeypatch)
    with pytest.raises(
        ConstructionError, match=r"^two rhombi share the edge \(\(2, 2\), \(7, 4\)\)$"
    ):
        build_key(Leaper(2, 5))


def test_shared_rhombus_edge_is_named_before_the_outer_pencils_fail(monkeypatch):
    # the rhombi are checked before the outer pencils are built, so a key
    # with a bent outer move as well still names the shared edge
    _repeat_rhombus_step(monkeypatch)
    _patch_outer(monkeypatch, lambda specs, p, q, side: specs.__setitem__(0, PencilSpec(specs[0].base, ((q, p + 1),))))
    with pytest.raises(
        ConstructionError, match=r"^two rhombi share the edge \(\(2, 2\), \(7, 4\)\)$"
    ):
        build_key(Leaper(2, 5))


def test_missing_rhombus_is_named_by_the_degree_check(monkeypatch):
    # 10 rhombi instead of 2(q-p)**2 = 18: one pencil's cores shrunk to their
    # centre cells still follow their steps and mirror each other, so only
    # the degree check sees the 8 missing rhombi: it names the first cell
    # that no core holds now, forward core 0's first, or backward core 3's
    for first, cell in ((0, (2, 2)), (4, (2, 9))):
        def shrink(cores):
            for k in range(first, first + 4):
                c = cores[k]
                cores[k] = Subboard(c.x1 + 1, c.x2 - 1, c.y1 + 1, c.y2 - 1)

        with monkeypatch.context() as patch:
            _patch_cores(patch, shrink)
            message = f"degree mismatch at {cell}: membership 0, inner 0, outer 1"
            with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
                build_key(Leaper(2, 5))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(free_leapers(41)))
def test_key_ids_equal_the_pencil_expansion_oracle(pq):
    key = build_key(Leaper(*pq))
    rhombi, outer, membership = oracle_key_ids(key.leaper)
    assert key.rhombus_ids == rhombi
    assert sorted(key.outer_ids) == outer
    assert key.membership == membership


def _oracle_key(leaper):
    """build_key as it was on (x, y) cells, before it built on cell ids,
    without its checks: (rhombi, inner edges, outer edges, core membership)."""
    p, q, side = leaper.p, leaper.q, leaper.side
    cores = build_cores(leaper)

    def pencil(base, dirs):
        for a in base.cells():
            path = [a]
            for dx, dy in dirs:
                path.append((path[-1][0] + dx, path[-1][1] + dy))
            assert all(0 <= x < side and 0 <= y < side for x, y in path)
            yield tuple(path)

    rhombi = []
    for base, dirs in (
        (cores.forward[0], ((q, p), (p, q), (-q, -p), (-p, -q))),
        (cores.backward[0], ((q, -p), (-p, q), (-q, p), (p, -q))),
    ):
        rhombi += [Rhombus(path[:4]) for path in pencil(base, dirs)]
    inner = {e for r in rhombi for e in r.edges()}

    mirrors = (
        lambda x, y: (x, y),
        lambda x, y: (side - 1 - x, y),
        lambda x, y: (side - 1 - x, side - 1 - y),
        lambda x, y: (x, side - 1 - y),
    )
    outer = set()
    for spec in keygraph._outer_pencils(leaper):
        for path in pencil(spec.base, spec.dirs):
            for a, b in zip(path, path[1:]):
                outer.update(edge(m(*a), m(*b)) for m in mirrors)

    counts = Counter(c for core in cores.all() for c in core.cells())
    membership = {(x, y): counts[x, y] for x in range(side) for y in range(side)}
    return tuple(rhombi), inner, outer, membership


@pytest.mark.parametrize(
    "p,q",
    [
        pytest.param(p, q, id=f"{p}-{q}", marks=[pytest.mark.slow] if p + q > 25 else [])
        for p, q in free_leapers(61)
    ],
)
def test_key_equals_the_cell_oracle(p, q):
    leaper = Leaper(p, q)
    key = build_key(leaper)
    rhombi, inner, outer, membership = _oracle_key(leaper)
    side = leaper.side

    def cells(e):
        return (divmod(e[0], side), divmod(e[1], side))

    assert key.cores == build_cores(leaper)
    assert key.rhombi == rhombi
    assert key.inner_edges == inner
    assert key.outer_edges == outer
    assert list(key.core_membership.items()) == list(membership.items())
    assert len(key.outer_ids) == len(outer)
    assert {cells(e) for e in key.outer_ids} == outer
    for r, pair in zip(rhombi, matching_ids(key), strict=True):
        assert tuple(map(cells, pair[0])) == rhombus_matching(r, 0)
        assert tuple(map(cells, pair[1])) == rhombus_matching(r, 1)


VIEWS = {"rhombi", "inner_edges", "outer_edges", "edges", "core_membership"}


def test_splices_derive_no_tuple_view():
    key = build_key(Leaper(12, 25))
    splice(key, random_bits(len(key.rhombus_ids), 1))
    symmetric_splice(key)
    assert not VIEWS & set(vars(key))


@pytest.mark.parametrize("extra", [[], ["--symmetric"]], ids=["plain", "symmetric"])
def test_generate_derives_no_tuple_view(monkeypatch, capsys, extra):
    keys = []
    real = keygraph.build_key
    monkeypatch.setattr(keygraph, "build_key", lambda leaper: keys.append(real(leaper)) or keys[-1])
    assert main(["generate", "--p", "2", "--q", "5", "--seed", "3", *extra]) == 0
    capsys.readouterr()
    (key,) = keys
    assert not VIEWS & set(vars(key))
