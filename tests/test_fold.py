import math

import pytest

from leapertour.fold import (
    build_crisscross,
    build_folding,
    check_fold,
    crisscross_reduce,
    fold_params,
    is_connected,
    outer_is_acyclic,
    project,
    toggle_floors,
)
from leapertour.geom import Leaper
from leapertour.keygraph import build_cores, build_key, is_connected_edges


def test_project_single_core():
    cores = build_cores(Leaper(2, 5))  # s = 1
    assert project((2, 2), cores) == ((-1, -1, 1),)


def test_project_intersection_cell():
    cores = build_cores(Leaper(2, 5))
    # (4, 4) is position (2, 2) in C'1 = [2,5)^2 and (0, 0) in C''1 = [4,7)^2
    assert set(project((4, 4), cores)) == {(1, 1, 1), (-1, -1, 2)}


def test_project_outside_all_cores():
    cores = build_cores(Leaper(2, 5))
    with pytest.raises(ValueError):
        project((0, 0), cores)


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
    cores = build_cores(Leaper(3, 4))
    assert all(
        f.intersect(b) is None for f in cores.forward for b in cores.backward
    )


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


def test_check_fold_report_has_no_graphs_for_cyclic_outer(monkeypatch):
    monkeypatch.setattr("leapertour.fold.outer_is_acyclic", lambda key: False)
    report = check_fold(Leaper(2, 5))
    assert not (report.outer_acyclic or report.matches or report.folding_connected)
    assert report.folding is None and report.crisscross is None


def test_outer_acyclic_directly():
    assert outer_is_acyclic(build_key(Leaper(2, 5)))


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
        if outer_is_acyclic(key) and is_connected(build_folding(key)):
            side = key.leaper.side
            cells = [(x, y) for x in range(side) for y in range(side)]
            assert is_connected_edges(cells, key.edges)


def test_single_vertex_graph_connected():
    from leapertour.fold import TwoFloorGraph

    # the t = 0 grid is one cell on two floors: connected only by the
    # between-floor edge
    g = TwoFloorGraph(t=0, edges=frozenset({((0, 0, 1), (0, 0, 2))}))
    assert is_connected(g)
    assert not is_connected(TwoFloorGraph(t=0, edges=frozenset()))
