"""Every output format, written by the CLI and read back by tests/readers.py."""

import tempfile
from pathlib import Path

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from leapertour.cli import free_leapers, main
from leapertour.verify import verify_tour
from readers import read_grid, read_svg, read_tour


@st.composite
def generate_args(draw):
    """A free leaper with p + q <= 21 and either a seed or none with a
    k x l tiling, 1 <= k, l <= 3, or a symmetric tour on one board."""
    p, q = draw(st.sampled_from(free_leapers(21)))
    if draw(st.booleans()):
        return p, q, 1, 1, ["--symmetric"]
    seed = draw(st.none() | st.integers(0, 2**32 - 1))
    k, l = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    extra = [] if seed is None else ["--seed", str(seed)]
    return p, q, k, l, [*extra, "--tile-k", str(k), "--tile-l", str(l)]


@settings(max_examples=12, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(generate_args())
def test_every_format_reads_back_as_the_same_valid_tour(args):
    p, q, k, l, extra = args
    width, height = 2 * (p + q) * k, 2 * (p + q) * l
    with tempfile.TemporaryDirectory() as tmp:
        paths = {fmt: Path(tmp, f"tour.{fmt}") for fmt in ("tour", "grid", "svg")}
        for fmt, path in paths.items():
            argv = ["generate", "--p", str(p), "--q", str(q), *extra, "--format", fmt]
            assert main([*argv, "--output", str(path)]) == 0
        *header, cells = read_tour(paths["tour"].read_text())
        assert header == [p, q, width, height]
        assert read_grid(paths["grid"].read_text()) == (width, height, cells)
        assert read_svg(paths["svg"].read_text()) == (width, height, cells)

        report = verify_tour(cells, p, q, width, height)
        assert report.valid, report.first_failure
        assert report.centrally_symmetric or "--symmetric" not in extra
        assert main(["verify", str(paths["tour"])]) == 0
