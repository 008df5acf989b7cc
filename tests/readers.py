"""Readers of the three output formats, for round-trip tests.

They share no code with leapertour.render, so a formatter fault cannot hide
behind a reader that makes the same mistake.  Each returns the tour's cells
in visit order and fails on text the format does not allow.
"""

import xml.etree.ElementTree as ET

SVG = "{http://www.w3.org/2000/svg}"


def read_tour(text):
    """`p q width height`, then one `x y` line per cell: (p, q, width, height, cells)."""
    header, *rows = text.split("\n")
    assert rows.pop() == "", "the text ends with a newline"
    p, q, width, height = map(int, header.split(" "))
    cells = []
    for row in rows:
        x, y = row.split(" ")
        cells.append((int(x), int(y)))
    return p, q, width, height, cells


def read_grid(text):
    """Rows of visit numbers, the top row y = height - 1: (width, height, cells)."""
    rows = [row.split() for row in text.splitlines()]
    height, width = len(rows), len(rows[0])
    at = {}
    for r, row in enumerate(rows):
        assert len(row) == width, f"row {r} has {len(row)} numbers, not {width}"
        for x, number in enumerate(row):
            at[int(number)] = (x, height - 1 - r)
    assert sorted(at) == list(range(1, width * height + 1))
    return width, height, [at[i] for i in range(1, width * height + 1)]


def read_svg(text):
    """The polygon's points, cell centres with y growing downward: (width, height, cells)."""
    root = ET.fromstring(text)
    _, _, width, height = map(int, root.get("viewBox").split())
    cells = []
    for point in root.find(f"{SVG}polygon").get("points").split():
        x, y = (float(v) - 0.5 for v in point.split(","))
        assert x.is_integer() and y.is_integer(), f"{point} is not a cell centre"
        cells.append((int(x), height - 1 - int(y)))
    return width, height, cells
