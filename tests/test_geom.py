import pytest

from leapertour.geom import (
    Leaper,
    PencilError,
    PencilSpec,
    Subboard,
    expand_pencil,
    reflect,
    reflect_cell,
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
    side = 14  # (2,5) board
    assert reflect_cell((0, 0), side, "identity") == (0, 0)
    assert reflect_cell((0, 0), side, "vertical") == (13, 0)
    assert reflect_cell((0, 0), side, "center") == (13, 13)
    assert reflect_cell((0, 0), side, "horizontal") == (0, 13)


def test_reflect_subboard_center_maps_core_1_to_core_3():
    p, q = 2, 5
    side = 2 * (p + q)
    c1 = Subboard(p, q, p, q)
    c3 = Subboard(2 * p + q, p + 2 * q, 2 * p + q, p + 2 * q)
    assert {reflect_cell(c, side, "center") for c in c1.cells()} == set(c3.cells())


def test_center_reflection_is_involution():
    side = 14
    cells = set(Subboard(1, 4, 2, 9).cells())
    mirrored = {reflect_cell(c, side, "center") for c in cells}
    assert mirrored != cells
    assert {reflect_cell(c, side, "center") for c in mirrored} == cells
    edges = {((1, 2), (3, 7)), ((0, 13), (5, 11))}
    assert reflect(reflect(edges, side, "center"), side, "center") == edges


def test_klein_four_composition():
    # vertical then horizontal equals center, on every cell of a small board
    side = 6
    for x in range(side):
        for y in range(side):
            v = reflect_cell((x, y), side, "vertical")
            assert reflect_cell(v, side, "horizontal") == reflect_cell(
                (x, y), side, "center"
            )


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
