import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leapertour.cli import main
from leapertour.render import format_svg, parse_structured
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
