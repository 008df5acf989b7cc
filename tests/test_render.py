import random
import xml.etree.ElementTree as ET
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leapertour.cli import main
from leapertour.render import format_grid, format_structured, format_svg, parse_structured
from oracles import format_grid as oracle_format_grid
from oracles import format_structured as oracle_format_structured
from oracles import format_svg as oracle_format_svg

SVG = "{http://www.w3.org/2000/svg}"


@st.composite
def boards_with_cells(draw):
    """A board from 1x1 up to 200 on a side, often far from square, and a
    sequence of its cells, repeats allowed."""
    width = draw(st.integers(1, 200))
    height = draw(st.integers(1, 200))
    cell = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    return width, height, draw(st.lists(cell, max_size=300))


@settings(max_examples=300, deadline=None)
@given(boards_with_cells())
def test_format_svg_matches_the_float_formatter(board):
    width, height, cells = board
    assert format_svg(cells, width, height) == oracle_format_svg(cells, width, height)


def _shuffled(width, height, rng):
    cells = [(x, y) for x in range(width) for y in range(height)]
    rng.shuffle(cells)
    return width, height, cells


def assert_same_text(got, want):
    """Fail, naming the first line that differs, unless the texts are equal.

    A plain assert would have pytest diff the two texts, which for boards of
    thousands of cells takes seconds, and hypothesis pays it again for each
    failing example it tries while shrinking."""
    if got != want:
        pairs = zip_longest(got.split("\n"), want.split("\n"))  # split is one-to-one
        i, (line, expected) = next((i, pair) for i, pair in enumerate(pairs) if pair[0] != pair[1])
        raise AssertionError(f"line {i} differs: got {line!r}, want {expected!r}")


@st.composite
def shuffled_boards(draw):
    """A board from 1x1 up to 120 on a side, often far from square, and
    every one of its cells once, in random order."""
    width, height = draw(st.integers(1, 120)), draw(st.integers(1, 120))
    return _shuffled(width, height, random.Random(draw(st.integers(0, 2**32))))


@settings(max_examples=100, deadline=None)
@given(shuffled_boards())
def test_format_grid_matches_the_padded_cell_formatter(board):
    width, height, cells = board
    assert_same_text(format_grid(cells, width, height), oracle_format_grid(cells, width, height))


@settings(max_examples=100, deadline=None)
@given(shuffled_boards(), st.integers(0, 10**6), st.integers(0, 10**6))
def test_format_structured_matches_the_line_formatter(board, p, q):
    width, height, cells = board
    assert_same_text(
        format_structured(cells, p, q, width, height), oracle_format_structured(cells, p, q, width, height)
    )


# boards on both sides of 10, 100 and 1000 cells, where a grid number
# gains a digit, and the extremes of the drawn sizes
@pytest.mark.parametrize(
    "width,height",
    [(1, 1), (3, 3), (2, 5), (9, 11), (10, 10), (27, 37), (25, 40), (1, 120), (120, 1), (120, 120)],
)
def test_table_formatters_across_number_widths(width, height):
    _, _, cells = _shuffled(width, height, random.Random(width * height))
    assert format_grid(cells, width, height) == oracle_format_grid(cells, width, height)
    assert format_structured(cells, 2, 5, width, height) == oracle_format_structured(
        cells, 2, 5, width, height
    )


@pytest.mark.parametrize(
    "args",
    [["--p", "2", "--q", "5", "--symmetric"], ["--p", "1", "--q", "2", "--tile-k", "2", "--tile-l", "3"]],
    ids=["symmetric-2-5", "tiling-1-2-2x3"],
)
def test_svg_polygon_visits_the_tour_cell_centres_in_order(tmp_path, args):
    tour_path, svg_path = tmp_path / "tour.txt", tmp_path / "tour.svg"
    assert main(["generate", *args, "--output", str(tour_path)]) == 0
    assert main(["generate", *args, "--format", "svg", "--output", str(svg_path)]) == 0
    _, _, width, height, cells = parse_structured(tour_path.read_text())

    polygon = ET.parse(svg_path).getroot().find(f"{SVG}polygon")
    points = [tuple(map(float, pt.split(","))) for pt in polygon.get("points").split()]
    assert len(points) == width * height
    assert points == [(x + 0.5, height - 1 - y + 0.5) for x, y in cells]
