"""The benchmark's tracer still finds and times every stage of the CLI.

``perfbench/spans.py`` wraps stage functions by module attribute name; a
rename in the package would make its traced run fail or read zeros.  This
test installs that tracer on the real package, runs one op per pipeline, and
checks that no layer raised and that every stage left a span.
"""

import importlib.util
from pathlib import Path

import pytest

import leapertour
import leapertour.cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

OPS = {
    "generate": (
        ["generate", "--p", "2", "--q", "5", "--seed", "3"],
        {"cli.main", "keygraph.build_key", "geom.expand_pencil", "geom.reflect",
         "keygraph.cycle_partition", "splice.splice", "verify.verify_tour", "render.format_structured"},
    ),
    "symmetric": (
        ["generate", "--p", "2", "--q", "5", "--symmetric", "--format", "svg"],
        {"splice.symmetric_splice", "splice.symmetric_halving_bits", "keygraph.is_connected_edges",
         "keygraph.cycle_partition", "verify.verify_central_symmetry", "render.format_svg"},
    ),
    "tiling": (
        ["generate", "--p", "2", "--q", "5", "--tile-k", "2", "--tile-l", "2", "--format", "grid"],
        {"splice.splice", "tile.tile", "keygraph.cycle_partition", "render.format_grid"},
    ),
    "fold": (
        ["fold", "--p", "2", "--q", "5"],
        {"fold.check_fold", "keygraph.build_key", "fold.outer_paths", "fold.build_folding",
         "fold.build_crisscross", "fold.is_connected"},
    ),
}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_covers_every_stage(spans, capsys):
    tracer = spans.Tracer(leapertour)
    for op, (argv, _) in OPS.items():
        tracer.install(op)
        try:
            # looked up per call, as the benchmark does, so the wrapper runs
            assert leapertour.cli.main(argv) == 0, op
        finally:
            tracer.uninstall()
    capsys.readouterr()

    assert not tracer.errors
    seen = {op: set() for op in OPS}
    for name, _, _, _, op, _ in tracer.spans:
        seen[op].add(name)
    for op, (_, expected) in OPS.items():
        assert expected <= seen[op], (op, expected - seen[op])
    assert "splice.flips" in tracer.extra["generate"]
    assert "splice.flips" in tracer.extra["tiling"]
