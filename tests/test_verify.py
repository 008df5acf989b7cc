from collections import deque
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import leapertour.verify as verify_module
from leapertour.geom import Leaper
from leapertour.keygraph import build_key
from leapertour.splice import random_bits, splice, symmetric_splice
from leapertour.verify import (
    is_free,
    oracle_tour_search,
    verify_central_symmetry,
    verify_tour,
)


def knight_tour_6x6():
    key = build_key(Leaper(1, 2))
    return splice(key, [0] * len(key.rhombi))


def test_generator_output_is_valid():
    tour = knight_tour_6x6()
    report = verify_tour(tour.cells, 1, 2, 6, 6)
    assert report.valid
    assert report.first_failure is None


def test_swapping_two_cells_breaks_legality():
    cells = list(knight_tour_6x6().cells)
    cells[3], cells[10] = cells[10], cells[3]
    report = verify_tour(cells, 1, 2, 6, 6)
    assert not report.all_moves_legal
    assert not report.valid
    assert report.first_failure is not None


def test_single_cell_is_not_a_closed_tour():
    report = verify_tour([(0, 0)], 1, 2, 1, 1)
    assert report.cell_count_ok and report.all_moves_legal and report.all_cells_once
    assert not report.closed
    assert not report.valid
    assert report.first_failure == "closing move (0, 0) -> (0, 0) is illegal"


@pytest.mark.parametrize(
    "p,q,width,height",
    [(0, 0, 1, 1), (0, 1, 2, 1), (1, 0, 6, 6), (1, 2, -6, 6), (1, 2, 6, 0)],
)
def test_degenerate_move_or_board_is_rejected(p, q, width, height):
    # (0, 0) would make the null move legal and accept a one-cell "tour"
    with pytest.raises(ValueError, match="need p, q, width, height >= 1"):
        verify_tour([(0, 0), (1, 0)], p, q, width, height)


def test_repeated_cell_detected():
    cells = list(knight_tour_6x6().cells)
    cells[5] = cells[0]
    report = verify_tour(cells, 1, 2, 6, 6)
    assert not report.all_cells_once


def test_truncated_tour_fails_count():
    cells = list(knight_tour_6x6().cells)[:-4]
    report = verify_tour(cells, 1, 2, 6, 6)
    assert not report.cell_count_ok


def test_open_path_not_closed():
    # a legal path whose ends are not a knight move apart
    cells = [(0, 0), (1, 2), (2, 4)]
    report = verify_tour(cells, 1, 2, 6, 6)
    assert report.all_moves_legal
    assert not report.closed


def test_central_symmetry_of_symmetric_generator():
    key = build_key(Leaper(1, 2))
    tour = symmetric_splice(key)
    assert verify_central_symmetry(tour.cells, 6, 6)


def test_central_symmetry_handbuilt_four_cycle():
    # knight 4-cycle on a 5x3 board, symmetric about its center (2, 1)
    cells = [(0, 1), (2, 0), (4, 1), (2, 2)]
    assert verify_central_symmetry(cells, 5, 3)
    rotated = cells[1:] + cells[:1]
    assert verify_central_symmetry(rotated, 5, 3)
    assert verify_central_symmetry(list(reversed(cells)), 5, 3)


def test_symmetry_is_checked_only_when_read(monkeypatch):
    tour = symmetric_splice(build_key(Leaper(1, 2)))
    calls = []
    real = verify_module.verify_central_symmetry
    monkeypatch.setattr(verify_module, "verify_central_symmetry", lambda *a: calls.append(a) or real(*a))
    report = verify_tour(tour.cells, 1, 2, 6, 6)
    assert report.valid and calls == []
    assert report.centrally_symmetric is True and report.centrally_symmetric is True
    assert len(calls) == 1
    # an invalid tour reports False without a check
    assert verify_tour(tour.cells[:-1], 1, 2, 6, 6).centrally_symmetric is False
    assert len(calls) == 1


def test_generic_asymmetric_input():
    cells = [(0, 0), (1, 2), (2, 0)]
    assert not verify_central_symmetry(cells, 6, 6)


@pytest.mark.parametrize(
    "p,q,expected",
    [(1, 2, True), (1, 3, False), (3, 4, True), (2, 5, True), (2, 4, False)],
)
def test_is_free(p, q, expected):
    assert is_free(p, q) is expected


def test_is_free_rejects_nonpositive():
    with pytest.raises(ValueError):
        is_free(0, 2)


def test_oracle_finds_knight_tour_on_6x6():
    tour = oracle_tour_search(1, 2, 6, 6)
    assert tour is not None
    assert verify_tour(tour, 1, 2, 6, 6).valid


def test_oracle_rejects_5x5_by_parity():
    assert oracle_tour_search(1, 2, 5, 5) is None


def test_oracle_board_size_cap():
    with pytest.raises(ValueError):
        oracle_tour_search(1, 2, 10, 10)


def _leaper_graph_is_connected(p, q, side):
    """Plain breadth-first search over every (p, q)-leaper move of the
    side x side board, with the moves built from p and q alone."""
    moves = [(sx * a, sy * b) for a, b in ((p, q), (q, p)) for sx in (1, -1) for sy in (1, -1)]
    seen = {(0, 0)}
    queue = deque([(0, 0)])
    while queue:
        x, y = queue.popleft()
        for dx, dy in moves:
            cell = (x + dx, y + dy)
            if 0 <= cell[0] < side and 0 <= cell[1] < side and cell not in seen:
                seen.add(cell)
                queue.append(cell)
    return len(seen) == side * side


@pytest.mark.parametrize(
    "q", [pytest.param(q, marks=[pytest.mark.slow] if q > 12 else []) for q in range(2, 31)]
)
def test_move_model_connected_iff_free(q):
    """The (p, q)-leaper graph of a board at least (p + q) x 2q is connected
    iff gcd(p, q) = 1 and p + q is odd (D. Knuth, "Leaper graphs",
    Math. Gazette 78 (1994)); the 2(p + q) board is that large, and is_free
    must say the same."""
    wrong = [
        p for p in range(1, q)
        if _leaper_graph_is_connected(p, q, 2 * (p + q)) != is_free(p, q)
    ]
    assert wrong == []


# --- mutation testing: one edit to a valid tour ----------------------------


def _is_leap(a, b, p, q):
    return sorted((abs(a[0] - b[0]), abs(a[1] - b[1]))) == [p, q]


def _oracle_closed_tour(cells, p, q, width, height):
    """A closed tour visits every cell of the board once, each step and the
    step back to the start a leap."""
    return (
        sorted(cells) == [(x, y) for x in range(width) for y in range(height)]
        and all(_is_leap(cells[i - 1], cells[i], p, q) for i in range(len(cells)))
    )


def _oracle_symmetric(cells, width, height):
    """The cyclic sequence's steps map onto themselves under the point
    reflection of the width x height board."""
    steps = {frozenset((cells[i - 1], cells[i])) for i in range(len(cells))}
    mirrored = {frozenset((width - 1 - x, height - 1 - y) for x, y in step) for step in steps}
    return steps == mirrored


@lru_cache(maxsize=None)
def _valid_tours(p, q):
    key = build_key(Leaper(p, q))
    return (symmetric_splice(key).cells, splice(key, random_bits(len(key.rhombi), 5)).cells)


@lru_cache(maxsize=None)
def _leap_reversals(p, q, which):
    """Every sequence made from a valid tour by reversing cells i .. j so
    that each step but the closing one stays a leap.  Most are 2-opt moves,
    which give another closed tour, often without central symmetry; the
    others are open paths that only the closing step gives away."""
    cells = _valid_tours(p, q)[which]
    n = len(cells)
    return [
        cells[:i] + cells[j:i - 1 if i else None:-1] + cells[j + 1:]
        for i in range(n)
        for j in range(i + 1, n)
        if (i == 0 or _is_leap(cells[i - 1], cells[j], p, q))
        and (j == n - 1 or _is_leap(cells[i], cells[j + 1], p, q))
    ]


@lru_cache(maxsize=None)
def _leap_substitutions(p, q, which):
    """Every sequence made from a valid tour by putting in place of cells[i]
    another of its cells that leaps to both of cells[i]'s neighbours: one
    cell repeats, another is missing, and every step stays a leap."""
    cells = _valid_tours(p, q)[which]
    n = len(cells)
    return [
        cells[:i] + (c,) + cells[i + 1:]
        for i in range(n)
        for c in cells
        if c != cells[i] and _is_leap(cells[i - 1], c, p, q) and _is_leap(c, cells[(i + 1) % n], p, q)
    ]


# "wider-board" keeps the tour and checks it against a board one column
# wider, which only the cell count gives away
EDITS = ("swap", "drop", "duplicate", "reverse", "leap", "leap-reverse", "substitute", "wider-board")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(1, 2), (2, 3), (2, 5)]), st.integers(0, 1), st.sampled_from(EDITS), st.data())
def test_verify_agrees_with_the_oracle_after_one_edit(pq, which, edit, data):
    p, q = pq
    side = width = 2 * (p + q)
    cells = list(_valid_tours(p, q)[which])
    n = len(cells)
    i, j = sorted(data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    if edit == "swap":
        cells[i], cells[j] = cells[j], cells[i]
    elif edit == "drop":
        del cells[i]
    elif edit == "duplicate":
        cells.insert(j, cells[i])
    elif edit == "reverse":
        cells[i:j + 1] = cells[i:j + 1][::-1]
    elif edit == "leap":
        dx, dy = data.draw(st.sampled_from(sorted(Leaper(p, q).directions())))
        cells[i] = (cells[i][0] + dx, cells[i][1] + dy)
    elif edit == "leap-reverse":
        cells = list(data.draw(st.sampled_from(_leap_reversals(p, q, which))))
    elif edit == "substitute":
        cells = list(data.draw(st.sampled_from(_leap_substitutions(p, q, which))))
    else:
        width = side + 1
    closed = _oracle_closed_tour(cells, p, q, width, side)
    symmetric = _oracle_symmetric(cells, width, side)
    report = verify_tour(cells, p, q, width, side)
    assert "centrally_symmetric" not in vars(report)  # not computed until read
    assert report.valid == closed
    assert verify_central_symmetry(cells, width, side) == symmetric
    assert report.centrally_symmetric == (closed and symmetric)


@st.composite
def _boards_with_cell_lists(draw):
    """Any cell list, empty or not: repeats, cells off the board on every
    side, and about half the time a list followed by its mirror image,
    which is always centrally symmetric."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cell = st.tuples(st.integers(-3, width + 2), st.integers(-3, height + 2))
    cells = draw(st.lists(cell, max_size=8))
    if cells and draw(st.booleans()):
        cells.insert(draw(st.integers(0, len(cells))), draw(st.sampled_from(cells)))
    if draw(st.booleans()):
        cells += [(width - 1 - x, height - 1 - y) for x, y in cells]
    return width, height, cells


@settings(max_examples=1000, deadline=None)
@given(_boards_with_cell_lists())
# off the board, (1, -1) and its mirror image (-1, 1) share a key if S is
# taken from the board height alone
@example((1, 1, [(1, -1)]))
def test_central_symmetry_agrees_with_the_oracle_on_any_cell_list(board):
    width, height, cells = board
    assert verify_central_symmetry(cells, width, height) == _oracle_symmetric(cells, width, height)
