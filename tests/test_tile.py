import re
from functools import lru_cache
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leapertour.cli import free_leapers
from leapertour.geom import Leaper, edge
from leapertour.keygraph import ConstructionError, build_key, cycle_partition, neighbour_arrays
from leapertour.splice import CycleTracker, Tour, random_bits, splice
from leapertour.tile import (
    Switch,
    _first_avoiding,
    find_switch,
    rotate_edges_ccw,
    switch_candidates,
    tile,
    translate_edges,
)
from leapertour.verify import verify_tour
from oracles import cycle_partition as oracle_partition
from oracles import tile as partition_tile


def base_tour(p, q):
    key = build_key(Leaper(p, q))
    return splice(key, [0] * len(key.rhombi))


def test_tile_1x1_is_identity():
    leaper = Leaper(1, 2)
    base = base_tour(1, 2)
    assert tile(leaper, 1, 1, base) is base


@pytest.mark.parametrize("p,q,k,l", [(1, 2, 2, 3), (1, 2, 3, 3), (2, 5, 2, 2)])
def test_tiled_tours_verify(p, q, k, l):
    leaper = Leaper(p, q)
    tour = tile(leaper, k, l, base_tour(p, q))
    side = leaper.side
    report = verify_tour(tour.cells, p, q, k * side, l * side)
    assert report.valid, report.first_failure


def test_rotated_copy_edges_are_rotated_base_edges():
    leaper = Leaper(1, 2)
    base = base_tour(1, 2)
    rotated = rotate_edges_ccw(base.edge_set(), leaper.side)
    assert len(rotated) == len(base.edge_set())
    # rotating a leaper move gives another leaper move
    dirs = leaper.directions()
    assert all((b[0] - a[0], b[1] - a[1]) in dirs for a, b in rotated)


def test_known_switch_cells_among_candidates():
    # stated switch cells: translation copy on the left, rotated copy on the right
    p, q = 1, 2
    leaper = Leaper(p, q)
    side = leaper.side
    base = base_tour(p, q).edge_set()
    left = translate_edges(base, 0, 0)
    right = translate_edges(rotate_edges_ccw(base, side), side, 0)

    a = (2 * p + q, 0)
    b = (3 * p + q, q)
    c = (side + p, p + q)
    d = (side + 0, p)
    assert edge(a, b) in left and edge(c, d) in right
    expected = {edge(a, b), edge(c, d)}
    found = any(
        {edge(sw.a, sw.b), edge(sw.c, sw.d)} == expected
        for sw in switch_candidates(left, right, leaper)
    )
    assert found


def test_switches_exist_for_all_four_adjacency_orientations():
    leaper = Leaper(1, 2)
    side = leaper.side
    base = base_tour(1, 2).edge_set()
    rot = rotate_edges_ccw(base, side)
    # horizontal: translation|rotation and rotation|translation
    assert next(switch_candidates(base, translate_edges(rot, side, 0), leaper), None) is not None
    assert next(switch_candidates(rot, translate_edges(base, side, 0), leaper), None) is not None
    # vertical: both stacking orders
    assert next(switch_candidates(base, translate_edges(rot, 0, side), leaper), None) is not None
    assert next(switch_candidates(rot, translate_edges(base, 0, side), leaper), None) is not None


def test_tile_result_differs_from_copies_only_on_switch_edges():
    leaper = Leaper(1, 2)
    base = base_tour(1, 2)
    side = leaper.side
    tour = tile(leaper, 2, 2, base)
    tour_edges = tour.edge_set()
    for i, j in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        source = base.edge_set() if (i + j) % 2 == 0 else rotate_edges_ccw(base.edge_set(), side)
        placed = translate_edges(source, i * side, j * side)
        missing = placed - tour_edges
        # each copy loses at most a few edges, all consumed by switches
        assert len(missing) <= 3


def test_tile_rejects_bad_grid():
    leaper = Leaper(1, 2)
    with pytest.raises(ValueError):
        tile(leaper, 0, 2, base_tour(1, 2))


def test_tile_failure_names_the_copies(monkeypatch):
    # with no candidate switches at all, the first comb-tree seam fails; the
    # caller names the leaper
    monkeypatch.setattr("leapertour.tile.switch_candidates", lambda a, b, leaper: iter(()))
    with pytest.raises(
        ConstructionError, match=r"^no switch found between copies \(0, 0\) and \(1, 0\) of the base tour$"
    ):
        tile(Leaper(1, 2), 2, 1, base_tour(1, 2))


def test_find_switch_without_a_candidate_is_refused():
    base = base_tour(1, 2).edge_set()
    right = translate_edges(base, 6, 0)
    assert find_switch(base, right, Leaper(1, 2))
    with pytest.raises(ConstructionError, match="^no switch found between adjacent copies of the base tour$"):
        find_switch(base, right, Leaper(1, 2), avoid=base | right)


@pytest.mark.parametrize(
    "change,cell",
    [
        (lambda cells: cells[:5] + cells[4:5] + cells[6:], (2, 2)),  # repeated, (4, 1) left out
        (lambda cells: cells[:7] + ((6, 2),) + cells[8:], (6, 2)),  # x == side
        (lambda cells: ((-1, 0),) + cells[1:], (-1, 0)),  # negative
    ],
    ids=["repeated", "x-is-side", "negative"],
)
def test_malformed_base_tour_is_refused(change, cell):
    # the right cell count, but a cell off the base board or listed twice
    base = base_tour(1, 2)
    assert base.cells[4:6] == ((2, 2), (4, 1))
    with pytest.raises(ValueError, match=rf"^base tour cell {re.escape(str(cell))} is off the 6x6 board or repeated$"):
        tile(Leaper(1, 2), 2, 1, Tour(change(base.cells)))


def test_switch_whose_edge_is_not_on_the_board_is_refused(monkeypatch):
    # a "switch" whose ab joins two cells of copy (0, 0) that are not tour
    # neighbours: the in-place flip finds no b at a to drop
    t = base_tour(1, 2).cells
    bad = Switch(t[0], t[2], t[5], t[6])
    monkeypatch.setattr("leapertour.tile.switch_candidates", lambda a, b, leaper: iter([bad]))
    message = f"cell {t[0]} has no neighbour {t[2]} to flip away"
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        tile(Leaper(1, 2), 2, 1, base_tour(1, 2))


def test_tiling_left_in_pieces_is_refused(monkeypatch):
    # a "switch" inside copy (0, 0) that swaps two of its tour edges for the
    # chords bc and da cuts that copy in two, and joins no copies
    t = base_tour(1, 2).cells
    cut = Switch(t[0], t[1], t[5], t[6])
    monkeypatch.setattr("leapertour.tile.switch_candidates", lambda a, b, leaper: iter([cut]))
    with pytest.raises(ConstructionError, match=r"^2x1 tiling of the base tour left 3 cycles, the second from cell \(0, 1\)$"):
        tile(Leaper(1, 2), 2, 1, base_tour(1, 2))


# --- differential oracle: the quadratic pairwise scan --------------------


def pairwise_switches(edges_a, edges_b, leaper):
    """Every edge of A against every edge of B, pre-filtered by bounding-box
    distance, both orientations of each."""
    moves = leaper.directions()
    q = leaper.q

    def box(e):
        (x1, y1), (x2, y2) = e
        return min(x1, x2), max(x1, x2), min(y1, y2), max(y1, y2)

    out = []
    boxed_b = [(eb, *box(eb)) for eb in sorted(edges_b)]
    for ea in sorted(edges_a):
        ax0, ax1, ay0, ay1 = box(ea)
        for eb, bx0, bx1, by0, by1 in boxed_b:
            if bx0 - ax1 > q or ax0 - bx1 > q or by0 - ay1 > q or ay0 - by1 > q:
                continue
            for a, b in (ea, (ea[1], ea[0])):
                for c, d in (eb, (eb[1], eb[0])):
                    bc = (c[0] - b[0], c[1] - b[1])
                    da = (a[0] - d[0], a[1] - d[1])
                    if bc in moves and da in moves:
                        out.append(Switch(a, b, c, d))
    return out


def reference_tile(leaper, k, l, base):
    """Tiling by the pairwise scan on the placed copies, seam by seam."""
    side = leaper.side
    copies = (base.edge_set(), rotate_edges_ccw(base.edge_set(), side))
    placed = {
        (i, j): translate_edges(copies[(i + j) % 2], i * side, j * side)
        for i in range(k)
        for j in range(l)
    }
    all_edges = set().union(*placed.values())
    tracker = CycleTracker({(x, y): (x, y) for x in range(k * side) for y in range(l * side)})
    for a, b in all_edges:
        tracker.union(a, b)
    tree = [((i, j), (i + 1, j)) for j in range(l) for i in range(k - 1)]
    tree += [((0, j), (0, j + 1)) for j in range(l - 1)]
    used = set()
    for sub_a, sub_b in tree:
        sw = next(
            sw
            for sw in pairwise_switches(placed[sub_a], placed[sub_b], leaper)
            if not (set(sw.old_edges()) | set(sw.new_edges())) & used
        )
        (a1, _), (c1, _) = sw.old_edges()
        assert tracker.find(a1) != tracker.find(c1)
        all_edges.difference_update(sw.old_edges())
        all_edges.update(sw.new_edges())
        used.update(sw.old_edges() + sw.new_edges())
        for a, b in sw.new_edges():
            tracker.union(a, b)
    (cells,) = oracle_partition(all_edges)
    return Tour(cells=cells)


@pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (2, 5), (4, 9)])
@pytest.mark.parametrize(
    "lower,shift",
    [(0, (1, 0)), (1, (1, 0)), (0, (0, 1)), (1, (0, 1))],
    ids=["h-trans|rot", "h-rot|trans", "v-trans|rot", "v-rot|trans"],
)
def test_switch_candidates_match_pairwise_oracle(p, q, lower, shift):
    leaper = Leaper(p, q)
    side = leaper.side
    base = base_tour(p, q).edge_set()
    copies = (base, rotate_edges_ccw(base, side))
    a = copies[lower]
    b = translate_edges(copies[1 - lower], shift[0] * side, shift[1] * side)
    expected = pairwise_switches(a, b, leaper)
    assert expected
    assert list(switch_candidates(a, b, leaper)) == expected


@pytest.mark.parametrize(
    "p,q,k,l", [(1, 2, 3, 2), (1, 2, 2, 4), (2, 3, 3, 3), (2, 5, 3, 4), (2, 5, 4, 1)]
)
def test_tile_matches_pairwise_reference(p, q, k, l):
    leaper = Leaper(p, q)
    key = build_key(leaper)
    base = splice(key, random_bits(len(key.rhombi), 7))
    assert tile(leaper, k, l, base) == reference_tile(leaper, k, l, base)


def test_replayed_seam_falls_through_a_rejected_cached_switch(monkeypatch):
    # A 2x4 comb places its rows first, then column 0; the third search, for
    # seams above a translated copy, serves (0, 0)-(0, 1) and, from its
    # cache, (0, 2)-(0, 3).  Leading it with the first search's first
    # switch, which rows 0 and 2 already use, makes both of its seams reject
    # that switch; every other candidate is the real one.
    leaper = Leaper(1, 2)
    base = base_tour(1, 2)
    expected = tile(leaper, 2, 4, base)
    real_search = switch_candidates
    pulled, examined, first = [], [], []

    def search(a, b, leaper):
        n = len(pulled)
        pulled.append(0)
        for sw in chain(first if n == 2 else (), real_search(a, b, leaper)):
            pulled[n] += 1
            if not first:
                first.append(sw)
            yield sw

    def first_avoiding(candidates, avoid):
        examined.append(0)
        for sw in candidates:
            examined[-1] += 1
            yield sw

    monkeypatch.setattr("leapertour.tile.switch_candidates", search)
    monkeypatch.setattr(
        "leapertour.tile._first_avoiding",
        lambda candidates, avoid: _first_avoiding(first_avoiding(candidates, avoid), avoid),
    )
    tour = tile(leaper, 2, 4, base)
    assert tour == expected
    assert verify_tour(tour.cells, 1, 2, 2 * leaper.side, 4 * leaper.side).valid
    # seams in tree order: rows 0-3, then column 0; the last one is replayed
    assert examined == [1, 1, 1, 1, 2, 1, 2]
    # and no search was pulled past what those seams needed
    assert pulled == [1, 1, 2, 1]


# --- property: random leapers, seeds and grids ----------------------------

FREE_UP_TO_9 = free_leapers(9)


@lru_cache(maxsize=None)
def cached_key(p, q):
    return build_key(Leaper(p, q))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(FREE_UP_TO_9),
    st.integers(0, 2**16),
    st.integers(1, 8),
    st.integers(1, 8),
)
def test_random_tilings_verify(pq, seed, k, l):
    p, q = pq
    leaper = Leaper(p, q)
    key = cached_key(p, q)
    tour = tile(leaper, k, l, splice(key, random_bits(len(key.rhombi), seed)))
    report = verify_tour(tour.cells, p, q, k * leaper.side, l * leaper.side)
    assert report.valid, report.first_failure


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(FREE_UP_TO_9),
    st.integers(0, 2**16),
    st.integers(1, 3),
    st.integers(1, 3),
)
def test_id_partition_equals_the_tuple_oracle_on_tilings(pq, seed, k, l):
    leaper = Leaper(*pq)
    side, height = leaper.side, l * leaper.side
    key = cached_key(*pq)
    base = splice(key, random_bits(len(key.rhombi), seed))
    copies = (base.edge_set(), rotate_edges_ccw(base.edge_set(), side))
    # the placed copies before any switch: one cycle per copy
    placed = set().union(
        *(translate_edges(copies[(i + j) % 2], i * side, j * side) for i in range(k) for j in range(l))
    )
    ids = [(a[0] * height + a[1], b[0] * height + b[1]) for a, b in placed]
    cycles = cycle_partition(*neighbour_arrays(ids, k * l * side * side))
    assert [tuple(divmod(c, height) for c in cycle) for cycle in cycles] == list(oracle_partition(placed))
    # and the switched board, whose one cycle tile returns
    tour = tile(leaper, k, l, base)
    assert oracle_partition(tour.edge_set()) == (tour.cells,)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(FREE_UP_TO_9),
    st.integers(0, 2**16),
    st.integers(1, 8),
    st.integers(1, 8),
)
def test_every_switch_joins_its_seams_copies_by_edges_on_the_board(pq, seed, k, l):
    # the premises of the merge argument in tile's docstring: a lies in copy
    # (i, j) and c in copy (i2, j2) of the seam's comb-tree edge, and both
    # old edges are on the board when the switch is applied
    leaper = Leaper(*pq)
    side = leaper.side
    key = cached_key(*pq)
    base = splice(key, random_bits(len(key.rhombus_ids), seed))
    applied = []

    def recording(candidates, avoid):
        applied.append(_first_avoiding(candidates, avoid))
        return applied[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("leapertour.tile._first_avoiding", recording)
        tour = tile(leaper, k, l, base)
    copies = (base.edge_set(), rotate_edges_ccw(base.edge_set(), side))
    board = set().union(
        *(translate_edges(copies[(i + j) % 2], i * side, j * side) for i in range(k) for j in range(l))
    )
    tree = [((i, j), (i + 1, j)) for j in range(l) for i in range(k - 1)]
    tree += [((0, j), (0, j + 1)) for j in range(l - 1)]
    assert len(applied) == len(tree) == k * l - 1
    for ((i, j), (i2, j2)), sw in zip(tree, applied):
        assert (sw.a[0] // side, sw.a[1] // side) == (i, j)
        assert (sw.c[0] // side, sw.c[1] // side) == (i2, j2)
        assert set(sw.old_edges()) <= board
        board.difference_update(sw.old_edges())
        board.update(sw.new_edges())
    assert board == tour.edge_set()


FREE_UP_TO_11 = free_leapers(11)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(FREE_UP_TO_11),
    st.integers(0, 2**16),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_lazy_band_search_tiles_like_the_eager_pairwise_scan(pq, seed, k, l):
    leaper = Leaper(*pq)
    key = cached_key(*pq)
    base = splice(key, random_bits(len(key.rhombus_ids), seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            "leapertour.tile.switch_candidates",
            lambda a, b, leaper: iter(pairwise_switches(a, b, leaper)),
        )
        expected = tile(leaper, k, l, base)
    assert tile(leaper, k, l, base) == expected


def _tiles_like_the_partition_oracle(pq, seed, k, l):
    leaper = Leaper(*pq)
    key = cached_key(*pq)
    base = splice(key, random_bits(len(key.rhombus_ids), seed))
    assert tile(leaper, k, l, base) == partition_tile(leaper, k, l, base)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(FREE_UP_TO_9), st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3))
def test_in_place_tile_matches_the_partition_oracle(pq, seed, k, l):
    _tiles_like_the_partition_oracle(pq, seed, k, l)


@pytest.mark.slow
@settings(max_examples=15, deadline=None)
@given(st.sampled_from(free_leapers(21)), st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5))
def test_in_place_tile_matches_the_partition_oracle_to_21(pq, seed, k, l):
    _tiles_like_the_partition_oracle(pq, seed, k, l)
