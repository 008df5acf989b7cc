import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from leapertour.geom import (
    Leaper,
    PencilError,
    PencilSpec,
    Subboard,
    expand_pencil,
    reflect,
)


def test_directions_knight():
    assert Leaper(1, 2).directions() == {
        (1, 2), (1, -2), (-1, 2), (-1, -2), (2, 1), (2, -1), (-2, 1), (-2, -1),
    }


@pytest.mark.parametrize("p,q", [(1, 2), (2, 5), (3, 4), (4, 7)])
def test_directions_count_and_negation_closure(p, q):
    dirs = Leaper(p, q).directions()
    assert len(dirs) == 8
    assert all((-dx, -dy) in dirs for dx, dy in dirs)


def test_directions_contains_example():
    assert (5, -2) in Leaper(2, 5).directions()


@pytest.mark.parametrize("p,q", [(1, 1), (2, 2), (1, 3), (2, 4), (3, 5), (0, 1)])
def test_invalid_leapers_rejected(p, q):
    with pytest.raises(ValueError):
        Leaper(p, q)


def test_reflect_cell_formulas():
    # reflect is the vertical mirror; the central one is id i to last - i,
    # and the horizontal one the central mirror of the vertical one
    side = 14  # (2,5) board
    last = side * side - 1
    ids = range(side * side)
    vertical = reflect(ids, side)
    formulas = {
        "vertical": (vertical, lambda x, y: (side - 1 - x, y)),
        "center": ([last - i for i in ids], lambda x, y: (side - 1 - x, side - 1 - y)),
        "horizontal": ([last - i for i in vertical], lambda x, y: (x, side - 1 - y)),
    }
    for which, (mirrored, formula) in formulas.items():
        assert [divmod(i, side) for i in mirrored] == [formula(*divmod(i, side)) for i in ids], which
    assert divmod(reflect([0], side)[0], side) == (13, 0)


def _ids(cells, side):
    return [x * side + y for x, y in cells]


def test_reflect_subboard_center_maps_core_1_to_core_3():
    p, q = 2, 5
    side = 2 * (p + q)
    c1 = Subboard(p, q, p, q)
    c3 = Subboard(2 * p + q, p + 2 * q, 2 * p + q, p + 2 * q)
    mirrored = [side * side - 1 - i for i in _ids(c1.cells(), side)]
    assert {divmod(i, side) for i in mirrored} == set(c3.cells())


def test_center_reflection_is_involution():
    # the central mirror last - i, and the vertical reflection, each undo themselves
    side = 14
    last = side * side - 1
    ids = _ids(Subboard(1, 4, 2, 9).cells(), side)
    for mirror in (lambda ids: [last - i for i in ids], lambda ids: reflect(ids, side)):
        mirrored = mirror(ids)
        assert set(mirrored) != set(ids)
        assert mirror(mirrored) == ids


def test_klein_four_composition():
    # on every cell of a small board, vertical then horizontal equals
    # center, and the vertical and central mirrors commute, so the
    # horizontal mirror is either order of the two
    side = 6
    last = side * side - 1
    ids = range(side * side)

    def horizontal(ids):
        return [last - i for i in reflect(ids, side)]

    assert horizontal(reflect(ids, side)) == [last - i for i in ids]
    assert horizontal(ids) == reflect([last - i for i in ids], side)


def test_forward_rhombus_pencil_yields_closed_cycles():
    p, q = 2, 5
    side = 2 * (p + q)
    spec = PencilSpec(
        Subboard(p, q, p, q), ((q, p), (p, q), (-q, -p), (-p, -q))
    )
    paths = expand_pencil(spec, side)
    assert len(paths) == (q - p) ** 2
    for path in paths:
        assert path[0] == path[4]
        assert len(set(path[:4])) == 4
    first = [divmod(i, side) for i in paths[0]]
    assert first == [(p, p), (p + q, 2 * p), (2 * p + q, 2 * p + q), (2 * p, p + q), (p, p)]


def test_empty_dirs_pencil_gives_zero_length_paths():
    spec = PencilSpec(Subboard(0, 2, 0, 3), ())
    paths = expand_pencil(spec, 6)
    assert len(paths) == 6
    assert all(len(p) == 1 for p in paths)


def test_pencil_a_has_pq_single_edge_paths():
    p, q = 2, 5
    spec = PencilSpec(Subboard(0, p, 0, q), ((q, p),))
    paths = expand_pencil(spec, 2 * (p + q))
    assert len(paths) == p * q
    assert all(len(path) == 2 for path in paths)


def test_out_of_board_pencil_reports_offending_cell():
    spec = PencilSpec(Subboard(0, 1, 0, 1), ((5, 2),))
    with pytest.raises(PencilError) as exc:
        expand_pencil(spec, 4)
    assert exc.value.cell == (5, 2)


def test_pencil_translates_disjoint_implies_paths_disjoint():
    p, q = 1, 2
    spec = PencilSpec(Subboard(0, p, 0, q), ((q, p),))
    paths = expand_pencil(spec, 2 * (p + q))
    cells = [c for path in paths for c in path]
    assert len(cells) == len(set(cells))


def _walk_pencil(spec, side):
    """expand_pencil on (x, y) cells, one vertex at a time."""
    paths = []
    for x, y in spec.base.cells():
        path = [(x, y)]
        for dx, dy in spec.dirs:
            path.append((path[-1][0] + dx, path[-1][1] + dy))
        for cell in path:
            if not (0 <= cell[0] < side and 0 <= cell[1] < side):
                raise PencilError(cell, side)
        paths.append(tuple(path))
    return paths


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 7), st.integers(1, 4), st.integers(0, 7), st.integers(1, 4),
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=4),
)
def test_pencil_ids_match_a_cell_walk(x1, w, y1, h, dirs):
    side = 8
    spec = PencilSpec(Subboard(x1, x1 + w, y1, y1 + h), tuple(dirs))
    try:
        expected = _walk_pencil(spec, side)
    except PencilError as exc:
        with pytest.raises(PencilError) as got:
            expand_pencil(spec, side)
        assert got.value.cell == exc.cell
    else:
        paths = expand_pencil(spec, side)
        assert [tuple(divmod(i, side) for i in path) for path in paths] == expected
