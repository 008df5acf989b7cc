import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leapertour.fold as fold_module
from leapertour.fold import (
    build_crisscross,
    build_folding,
    check_fold,
    crisscross_reduce,
    fold_params,
    FoldParams,
    FoldReport,
    OuterCycleError,
    is_connected,
    locate_failure,
    outer_paths,
    projections,
    TwoFloorGraph,
)
from leapertour.cli import free_leapers
from leapertour.geom import Leaper, edge
from leapertour.keygraph import ConstructionError, build_key, is_connected_edges
from oracles import check_fold as oracle_check_fold
from oracles import fold_ids
from oracles import outer_paths as oracle_outer_paths

# the (2,5)-leaper's 14 x 14 board, with core side 3 and t = 1
KEY_2_5 = build_key(Leaper(2, 5))


def test_project_single_core():
    assert projections(KEY_2_5)[2 * 14 + 2] == fold_ids(1, ((-1, -1, 1),))


def test_project_intersection_cell():
    # (4, 4) is position (2, 2) in C'1 = [2,5)^2 and (0, 0) in C''1 = [4,7)^2
    assert projections(KEY_2_5)[4 * 14 + 4] == fold_ids(1, ((1, 1, 1), (-1, -1, 2)))


def test_project_outside_all_cores():
    assert projections(KEY_2_5)[0] == ()


def test_projections_agree_with_membership():
    for p, q in [(1, 2), (2, 5), (3, 4), (5, 8)]:
        key = build_key(Leaper(p, q))
        assert list(map(len, projections(key))) == key.membership


def test_outer_path_ending_outside_every_core_names_the_cell():
    # dropping an outer edge between two cells outside every core makes
    # both of them path ends with no projection
    u, v = next((a, b) for a, b in KEY_2_5.outer_ids if KEY_2_5.membership[a] == KEY_2_5.membership[b] == 0)
    cut = dataclasses.replace(KEY_2_5, outer_ids=tuple(e for e in KEY_2_5.outer_ids if e != (u, v)))
    with pytest.raises(ConstructionError) as failure:
        build_folding(cut)
    assert any(f"outer path end {divmod(c, 14)} " in str(failure.value) for c in (u, v))


def test_outer_path_with_both_ends_on_one_projection_is_named(monkeypatch):
    # two path ends of one core cell, joined as one path, fold to a loop
    table = projections(KEY_2_5)
    ends = [c for path in outer_paths(KEY_2_5) for c in path]
    single = [c for c in ends if len(table[c]) == 1]
    a, b = next((a, b) for a in single for b in single if a < b and table[a] == table[b])
    monkeypatch.setattr(fold_module, "outer_paths", lambda key: [(a, b)])
    with pytest.raises(
        ConstructionError, match=rf"^outer path \({a // 14}, {a % 14}\)-\({b // 14}, {b % 14}\) folds to a self-loop$"
    ):
        build_folding(KEY_2_5)


def test_folding_2_5_equals_crisscross_2_1():
    key = build_key(Leaper(2, 5))
    folding = build_folding(key)
    assert len(folding.vertices()) == 18  # 2 * (q-p)^2
    assert folding.edges == build_crisscross(2, 1).edges


def test_folding_vertex_count():
    for p, q in [(1, 2), (3, 4), (2, 7)]:
        key = build_key(Leaper(p, q))
        assert len(build_folding(key).vertices()) == 2 * (q - p) ** 2


def test_between_floor_edges_iff_cores_overlap():
    # 2p < q: intersections exist, so between-floor edges do too
    key = build_key(Leaper(2, 5))
    assert any(a[2] != b[2] for a, b in build_folding(key).edges)
    # 2p >= q: no intersection cells; between-floor edges come only from
    # outer paths crossing floors, which still exist, so test intersections
    key = build_key(Leaper(3, 4))
    assert max(key.core_membership.values()) == 1


def test_crisscross_0_1_is_a_single_edge():
    g = build_crisscross(0, 1)
    assert len(g.vertices()) == 2
    assert g.edges == {((0, 0, 1), (0, 0, 2))}


def test_crisscross_vertex_count():
    g = build_crisscross(2, 3)
    assert len(g.vertices()) == 2 * (2 + 3) ** 2


def test_crisscross_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_crisscross(1, 3)  # even sum
    with pytest.raises(ValueError):
        build_crisscross(3, 9)  # common factor


@pytest.mark.parametrize(
    "p,q,r,m,n,h,expected",
    [
        (2, 5, 3, 2, 1, 0, (2, 1)),
        (2, 7, 5, 2, 3, 0, (2, 3)),
        (5, 8, 3, 2, 1, 1, (1, 2)),
        (2, 3, 1, 0, 1, 2, (0, 1)),
    ],
)
def test_fold_params(p, q, r, m, n, h, expected):
    params = fold_params(Leaper(p, q))
    assert (params.r, params.m, params.n, params.h) == (r, m, n, h)
    assert params.expected == expected


@pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (1, 4), (3, 4), (2, 5), (5, 8), (2, 7), (7, 10)])
def test_check_fold_matches(p, q):
    report = check_fold(Leaper(p, q))
    assert report.outer_acyclic
    assert report.matches
    assert report.folding_connected


@pytest.mark.parametrize("p,q", [(1, 2), (2, 5), (5, 8)])
def test_check_fold_report_carries_its_graphs(p, q):
    leaper = Leaper(p, q)
    report = check_fold(leaper)
    assert report.folding == build_folding(build_key(leaper))
    assert report.crisscross == build_crisscross(*report.params.expected)


@pytest.mark.parametrize("p,q", [(1, 2), (2, 5), (5, 8)])
def test_check_fold_takes_a_ready_key(monkeypatch, p, q):
    leaper = Leaper(p, q)
    key = build_key(leaper)
    expected = check_fold(leaper)
    monkeypatch.setattr(fold_module, "build_key", None)  # a ready key needs no build
    assert check_fold(key) == expected


def _cyclic_outer_paths(key):
    raise OuterCycleError("outer graph contains a cycle")


def test_check_fold_raises_for_cyclic_outer(monkeypatch):
    # outer_paths' located message reaches the caller unchanged
    monkeypatch.setattr(fold_module, "outer_paths", _cyclic_outer_paths)
    with pytest.raises(OuterCycleError, match="^outer graph contains a cycle$"):
        check_fold(Leaper(2, 5))


def test_located_failure_names_the_smallest_edge_and_its_graph(monkeypatch):
    # the folding graph without its smallest edge: only R(2,1) still has it
    real = build_folding
    smallest = min(real(KEY_2_5).ids)

    def without_smallest(key):
        return dataclasses.replace(real(key), ids=real(key).ids - {smallest})

    monkeypatch.setattr(fold_module, "build_folding", without_smallest)
    report = check_fold(KEY_2_5)
    assert not report.matches
    a, b = (report.folding.vertices()[i] for i in smallest)
    assert a == (-1, -1, 1)
    assert locate_failure(report) == f"folding graph differs from R(2,1): only R(2,1) has the edge {a}-{b}"


def test_outer_acyclic_directly():
    key = build_key(Leaper(2, 5))
    # in an acyclic outer graph every cell of outer degree 1 ends one path
    ends = sum(1 for m in key.core_membership.values() if m == 1)
    assert 2 * len(outer_paths(key)) == ends


def test_outer_paths_raises_on_a_cycle():
    key = build_key(Leaper(2, 5))
    # core-intersection cells of the 14 x 14 board, which no outer edge
    # touches, so the triangle touches no outer path
    a, b, c = 4 * 14 + 4, 4 * 14 + 9, 9 * 14 + 4
    triangle = ((a, b), (a, c), (b, c))
    with pytest.raises(OuterCycleError, match="cycle") as failure:
        outer_paths(dataclasses.replace(key, outer_ids=key.outer_ids + triangle))
    assert str(failure.value).endswith("through cell (4, 4)")


def test_outer_paths_raises_on_a_branching_cell():
    # two ends and two cells of degree 3: the component search took this
    # shape for one path, since exactly two of its cells have degree 1
    shape = ((0, 1), (1, 2), (1, 3), (2, 3), (3, 4))
    branched = dataclasses.replace(KEY_2_5, outer_ids=shape)
    assert oracle_outer_paths(branched) == [(0, 4)]
    with pytest.raises(OuterCycleError, match=r"^outer graph branches at cell \(0, 1\), degree 3$"):
        outer_paths(branched)


def test_check_fold_walks_the_outer_graph_once(monkeypatch):
    calls = []

    def counting_outer_paths(key):
        calls.append(key.leaper)
        return outer_paths(key)

    monkeypatch.setattr(fold_module, "outer_paths", counting_outer_paths)
    report = check_fold(Leaper(2, 5))
    assert report.matches and calls == [Leaper(2, 5)]


def toggle_floors(edges):
    """Swap the two floors of every vertex (maps R(m, n) onto R(n, m))."""
    return frozenset(
        edge((a[0], a[1], 3 - a[2]), (b[0], b[1], 3 - b[2])) for a, b in edges
    )


def test_floor_toggle_swaps_crisscross_graphs():
    for m, n in [(2, 1), (2, 3), (1, 4)]:
        assert toggle_floors(build_crisscross(m, n).edges) == build_crisscross(n, m).edges


def test_folding_floor_toggle_gives_other_crisscross():
    key = build_key(Leaper(2, 5))
    assert toggle_floors(build_folding(key).edges) == build_crisscross(1, 2).edges


@pytest.mark.parametrize(
    "m,n,expected",
    [((1), 4, (1, 2)), (2, 5, (1, 2)), (2, 3, (1, 2))],
)
def test_crisscross_reduce_cases(m, n, expected):
    assert crisscross_reduce(m, n) == expected


def test_crisscross_reduce_rejects_base_case():
    with pytest.raises(ValueError):
        crisscross_reduce(0, 1)


def test_reduction_chains_terminate_at_0_1():
    for s in range(3, 22, 2):
        for m in range(1, s // 2):
            n = s - m
            if (m - n) % 2 == 0 or math.gcd(m - n, m + n) != 1:
                continue
            total = m + n
            while m != 0:
                m, n = crisscross_reduce(m, n)
                assert m + n < total
                total = m + n
            assert (m, n) == (0, 1)


def test_crisscross_connected_sweep():
    for s in range(1, 22, 2):
        for m in range(0, s):
            n = s - m
            if math.gcd(m - n, m + n) != 1:
                continue
            assert is_connected(build_crisscross(m, n)), (m, n)


def test_connectivity_implication_for_key_graph():
    # connected folding + acyclic outer graph must imply a connected key graph
    for p, q in [(1, 2), (2, 5), (3, 4), (5, 8)]:
        key = build_key(Leaper(p, q))
        report = check_fold(Leaper(p, q))
        if report.outer_acyclic and report.folding_connected:
            side = key.leaper.side
            cells = [(x, y) for x in range(side) for y in range(side)]
            assert is_connected_edges(cells, key.edges)


def test_single_vertex_graph_connected():
    from leapertour.fold import TwoFloorGraph

    # the t = 0 grid is one cell on two floors: connected only by the
    # between-floor edge
    g = TwoFloorGraph(t=0, ids=frozenset({fold_ids(0, ((0, 0, 1), (0, 0, 2)))}))
    assert is_connected(g)
    assert not is_connected(TwoFloorGraph(t=0, ids=frozenset()))


# --- networkx cross-checks of the three connectivity answers ---------------


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2).flatmap(
        lambda t: st.tuples(
            st.just(t),
            st.lists(st.tuples(st.integers(0, 2 * (2 * t + 1) ** 2 - 1), st.integers(0, 2 * (2 * t + 1) ** 2 - 1)),
                     max_size=60),
        )
    )
)
def test_fold_connectivity_and_its_located_failure_are_the_networkx_ones(nx, spec):
    # on random graphs over the 2, 18 and 50 vertex ids of t = 0, 1, 2: the
    # component count and the second component's first vertex, which
    # locate_failure names for a matching but disconnected folding graph
    t, pairs = spec
    n = 2 * (2 * t + 1) ** 2
    folding = TwoFloorGraph(t, frozenset((min(a, b), max(a, b)) for a, b in pairs))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(folding.ids)
    assert is_connected(folding) == nx.is_connected(graph)
    if not nx.is_connected(graph):
        report = FoldReport(FoldParams(2 * t + 1, 0, 2 * t + 1, 0), True, False, folding, folding)
        count = nx.number_connected_components(graph)
        second = folding.vertices()[min(set(range(n)) - nx.node_connected_component(graph, 0))]
        assert locate_failure(report) == f"folding graph has {count} components, the second from vertex {second}"


def _nx_connected(nx, vertices, edges):
    graph = nx.Graph()
    graph.add_nodes_from(vertices)
    graph.add_edges_from(edges)
    return nx.is_connected(graph)


def _connectivity_cases(p, q, keep):
    """(package's answer, vertices, edges) for the key, folding and
    crisscross graphs of the (p, q)-leaper, each edge kept iff keep(edge)."""
    key = build_key(Leaper(p, q))
    side = key.leaper.side
    report = check_fold(key)
    assert report.outer_acyclic
    cells = [(x, y) for x in range(side) for y in range(side)]
    key_edges = [e for e in sorted(key.edges) if keep(e)]
    cases = [(is_connected_edges(cells, key_edges), cells, key_edges)]
    for graph in (report.folding, report.crisscross):
        kept = TwoFloorGraph(graph.t, frozenset(fold_ids(graph.t, e) for e in sorted(graph.edges) if keep(e)))
        cases.append((is_connected(kept), kept.vertices(), kept.edges))
    return cases


@pytest.mark.parametrize("p,q", free_leapers(21))
def test_connectivity_agrees_with_networkx(nx, p, q):
    for answer, vertices, edges in _connectivity_cases(p, q, lambda e: True):
        assert answer == _nx_connected(nx, vertices, edges)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(free_leapers(21)), st.sampled_from([0.002, 0.02, 0.2]), st.integers(0, 2**32 - 1))
def test_connectivity_agrees_with_networkx_after_dropping_edges(nx, pq, drop, seed):
    rng = random.Random(seed)
    for answer, vertices, edges in _connectivity_cases(*pq, lambda e: rng.random() >= drop):
        assert answer == _nx_connected(nx, vertices, edges)


# --- the id fold against the tuple fold it replaced ------------------------


@pytest.mark.parametrize(
    "p,q",
    [
        pytest.param(p, q, id=f"{p}-{q}", marks=[pytest.mark.slow] if p + q > 21 else [])
        for p, q in free_leapers(61)
    ],
)
def test_check_fold_matches_the_tuple_oracle(p, q):
    key = build_key(Leaper(p, q))
    report = check_fold(key)
    acyclic, matches, connected, folding, crisscross = oracle_check_fold(key)
    assert (report.outer_acyclic, report.matches, report.folding_connected) == (acyclic, matches, connected)
    assert report.folding.edges == folding.edges
    assert report.crisscross.edges == crisscross.edges
