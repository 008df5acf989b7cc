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
from oracles import parse_structured as oracle_parse_structured

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


def _outcome(parse, text):
    """What a reader gives for the text: its tuple, or its ValueError's message."""
    try:
        return "read", parse(text)
    except ValueError as exc:
        return "error", str(exc)


def _replace(lines, i, old, new):
    lines[i] = lines[i].replace(old, new, 1)


def _wrap(lines, i, before, after):
    lines[i] = before + lines[i] + after


def _join(lines, i, separator):
    lines[i:i + 2] = [separator.join(lines[i:i + 2])]


def _drop_final_newline(lines, i):
    if len(lines) > 1 and lines[-1] == "":
        lines.pop()


def _empty(lines, i):
    lines[:] = [""]


# each edit takes the text's lines (split on "\n", the last one "" when the
# text ends in a newline) and the index of a line to change
EDITS = {
    "tab": lambda lines, i: _replace(lines, i, " ", "\t"),
    "double space": lambda lines, i: _replace(lines, i, " ", "  "),
    "crlf": lambda lines, i: _wrap(lines, i, "", "\r"),
    "leading zero": lambda lines, i: _wrap(lines, i, "0", ""),
    "plus": lambda lines, i: _wrap(lines, i, "+", ""),
    "blank line": lambda lines, i: lines.insert(i, ""),
    "lines joined by a space": lambda lines, i: _join(lines, i, " "),
    "lines run together": lambda lines, i: _join(lines, i, ""),
    "three tokens": lambda lines, i: _wrap(lines, i, "", " 7"),
    "non-digit token": lambda lines, i: _replace(lines, i, lines[i][:1], "x"),
    "no final newline": _drop_final_newline,
    "form feed in the header": lambda lines, i: _replace(lines, 0, " ", " \x0c"),
    "next line in the header": lambda lines, i: _replace(lines, 0, " ", "\x85 "),
    "empty text": _empty,
}


@st.composite
def tour_texts(draw):
    """A tour file as the line formatter prints it, for cells on, off and
    next to a board, with up to three of the edits above."""
    coordinate = st.integers(-30, 250)
    cells = draw(st.lists(st.tuples(coordinate, coordinate), max_size=12))
    header = draw(st.tuples(*[st.integers(-5, 10**9)] * 4))
    lines = oracle_format_structured(cells, *header).split("\n")
    for name in draw(st.lists(st.sampled_from(sorted(EDITS)), max_size=3)):
        EDITS[name](lines, draw(st.integers(0, len(lines) - 1)))
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(tour_texts())
def test_parse_structured_matches_the_line_reader(text):
    assert _outcome(parse_structured, text) == _outcome(oracle_parse_structured, text)


@pytest.mark.parametrize("name", sorted(EDITS))
def test_parse_structured_matches_the_line_reader_on_each_edit_of_each_line(name):
    cells = [(0, 0), (12, 3), (5, 107), (3, 3)]
    for i in range(len(cells) + 2):
        lines = format_structured(cells, 2, 5, 14, 140).split("\n")
        EDITS[name](lines, i)
        text = "\n".join(lines)
        assert _outcome(parse_structured, text) == _outcome(oracle_parse_structured, text), text


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=" \t\n\r\x0b\x0c\x1c\x85\u2028+-0123456789x\u0663", max_size=30))
def test_parse_structured_matches_the_line_reader_on_any_text(text):
    # Unicode digits such as \u0663 pass int() but not the shape check, and
    # every line break splitlines() knows falls back to the line reader
    assert _outcome(parse_structured, text) == _outcome(oracle_parse_structured, text)


@pytest.mark.parametrize(
    "width,height", [(1, 1), (2, 5), (14, 14), (560, 3)],
)
def test_parse_structured_reads_what_format_structured_writes(width, height):
    _, _, cells = _shuffled(width, height, random.Random(width * height))
    text = format_structured(cells, 2, 5, width, height)
    assert parse_structured(text) == oracle_parse_structured(text) == (2, 5, width, height, cells)
