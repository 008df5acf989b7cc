import dataclasses
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leapertour.geom import Leaper, Subboard, reflect
from leapertour.keygraph import (
    build_cores,
    build_inner,
    build_key,
    build_outer,
    halve,
    is_connected_edges,
)

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
    rhombi, edges = build_inner(Leaper(2, 5))
    assert len(rhombi) == 18  # 2 * (q-p)^2
    assert len(edges) == 72  # 4 edges each, none shared


def test_forward_rhombus_at_pp():
    p, q = 2, 5
    rhombi, _ = build_inner(Leaper(p, q))
    (r,) = [r for r in rhombi if r.cells[0] == (p, p)]
    assert r.cells == ((p, p), (p + q, 2 * p), (2 * p + q, 2 * p + q), (2 * p, p + q))


@pytest.mark.parametrize("p,q", FREE_SMALL)
def test_outer_size_and_reflection_invariance(p, q):
    leaper = Leaper(p, q)
    outer = build_outer(leaper)
    assert len(outer) == 16 * p * q
    for which in ("vertical", "center", "horizontal"):
        assert reflect(outer, leaper.side, which) == outer


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


def test_core_membership_counts_the_cores_holding_each_cell():
    for p, q in FREE_SMALL + [(6, 13)]:
        key = build_key(Leaper(p, q))
        cores = key.cores.all()
        for cell, e in key.core_membership.items():
            assert e == sum(cell in core for core in cores), (p, q, cell)


def test_build_key_tests_no_cell_against_a_core(monkeypatch):
    calls = []
    real = Subboard.__contains__

    def counting_contains(self, cell):
        calls.append(cell)
        return real(self, cell)

    monkeypatch.setattr(Subboard, "__contains__", counting_contains)
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
    assert len(key.matching_ids) == len(key.rhombi)
    for r, pair in zip(key.rhombi, key.matching_ids):
        for bit in (0, 1):
            assert all(a < b for a, b in pair[bit])
            assert tuple(map(cells, pair[bit])) == r.matching(bit)


def test_id_view_follows_a_replaced_key():
    key = build_key(Leaper(2, 5))
    assert key.outer_ids and key.matching_ids  # derive the originals first
    bare = dataclasses.replace(key, rhombi=key.rhombi[:3], outer_edges=frozenset())
    assert bare.outer_ids == ()
    assert bare.matching_ids == key.matching_ids[:3]
