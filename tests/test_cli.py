import pytest

from leapertour.cli import main
from leapertour.geom import Leaper
from leapertour.render import parse_structured


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_grid(capsys):
    code, out, _ = run(capsys, "generate", "--p", "2", "--q", "5", "--format", "grid")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 14
    numbers = [int(v) for row in rows for v in row.split()]
    assert sorted(numbers) == list(range(1, 197))


def test_generate_structured_and_roundtrip(tmp_path, capsys):
    path = tmp_path / "tour.txt"
    code, _, _ = run(capsys, "generate", "--p", "1", "--q", "2", "--output", str(path))
    assert code == 0
    p, q, w, h, cells = parse_structured(path.read_text())
    assert (p, q, w, h) == (1, 2, 6, 6)
    assert len(cells) == 36
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "VALID" in out


def test_generate_svg(capsys):
    code, out, _ = run(capsys, "generate", "--p", "1", "--q", "2", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg")
    assert "<polygon" in out


def test_generate_symmetric_verifies(tmp_path, capsys):
    path = tmp_path / "sym.txt"
    code, _, _ = run(
        capsys, "generate", "--p", "2", "--q", "5", "--symmetric", "--output", str(path)
    )
    assert code == 0
    code, out, _ = run(capsys, "verify", str(path), "--require-symmetry")
    assert code == 0


def test_generate_tiled(tmp_path, capsys):
    path = tmp_path / "tiled.txt"
    code, _, _ = run(
        capsys, "generate", "--p", "1", "--q", "2",
        "--tile-k", "2", "--tile-l", "3", "--output", str(path),
    )
    assert code == 0
    _, _, w, h, cells = parse_structured(path.read_text())
    assert (w, h) == (12, 18)
    assert len(cells) == 216
    code, _, _ = run(capsys, "verify", str(path))
    assert code == 0


@pytest.mark.parametrize("k,l", [("0", "1"), ("2", "-1")])
def test_tile_grid_below_1x1_is_usage_error(capsys, k, l):
    code, out, err = run(
        capsys, "generate", "--p", "1", "--q", "2", "--tile-k", k, "--tile-l", l
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--tile-k" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("k,l", [("2", "2"), ("1", "2"), ("3", "1")])
def test_symmetric_tiling_is_usage_error(capsys, monkeypatch, k, l):
    def no_construction(leaper):
        raise AssertionError("key graph built for an unsatisfiable request")

    monkeypatch.setattr("leapertour.keygraph.build_key", no_construction)
    code, out, err = run(
        capsys, "generate", "--p", "2", "--q", "5", "--symmetric", "--tile-k", k, "--tile-l", l
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--symmetric" in err
    assert len(err.strip().splitlines()) == 1


def test_non_free_leaper_is_usage_error(capsys):
    code, _, err = run(capsys, "generate", "--p", "1", "--q", "3")
    assert code == 2
    assert "relatively prime" in err


def test_verify_with_wrong_q(tmp_path, capsys):
    path = tmp_path / "tour.txt"
    run(capsys, "generate", "--p", "1", "--q", "2", "--output", str(path))
    code, out, _ = run(capsys, "verify", str(path), "--q", "4")
    assert code == 1
    assert "all_moves_legal=False" in out


def test_verify_truncated_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 6 6\n0 0\n1 2 oops\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "text,extra",
    [
        ("0 0 1 1\n0 0\n", []),
        ("0 1 2 1\n0 0\n1 0\n", []),
        ("1 2 -6 6\n0 0\n", []),
        ("1 2 6 6\n0 0\n", ["--width", "0"]),
        ("1 2 6 6\n0 0\n", ["--p", "-1"]),
    ],
)
def test_verify_degenerate_header_is_usage_error(tmp_path, capsys, text, extra):
    path = tmp_path / "degenerate.txt"
    path.write_text(text)
    code, out, err = run(capsys, "verify", str(path), *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "t.txt"
    code, out, err = run(capsys, "generate", "--p", "1", "--q", "2", "--output", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write output") and len(err.strip().splitlines()) == 1


def test_fold_report(capsys):
    code, out, _ = run(capsys, "fold", "--p", "2", "--q", "5")
    assert code == 0
    assert "r=3 m=2 n=1 h=0 expect R(2,1): MATCH, O acyclic, F connected" in out


def test_fold_expected_graph_for_odd_h(capsys):
    code, out, _ = run(capsys, "fold", "--p", "5", "--q", "8")
    assert code == 0
    assert "expect R(1,2)" in out


def test_fold_dump_lists_edges(capsys):
    code, out, _ = run(capsys, "fold", "--p", "1", "--q", "2", "--dump")
    assert code == 0
    assert "folding graph edges:" in out
    assert "crisscross R(" in out


def test_fold_dump_prints_the_checked_graphs(capsys, monkeypatch):
    import leapertour.fold as fold

    calls = []
    for name in ("build_key", "build_folding", "build_crisscross"):
        real = getattr(fold, name)
        monkeypatch.setattr(fold, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    code, out, _ = run(capsys, "fold", "--p", "2", "--q", "5", "--dump")
    assert code == 0
    assert sorted(calls) == ["build_crisscross", "build_folding", "build_key"]
    report = fold.check_fold(Leaper(2, 5))
    assert out.count("\n  ") == len(report.folding.edges) + len(report.crisscross.edges)


def test_fold_dump_with_cyclic_outer_prints_report_only(capsys, monkeypatch):
    monkeypatch.setattr("leapertour.fold.outer_is_acyclic", lambda key: False)
    code, out, _ = run(capsys, "fold", "--p", "2", "--q", "5", "--dump")
    assert code == 1
    assert "O CYCLIC" in out and "edges:" not in out


def test_sweep_covers_only_knight_at_sum_3(capsys):
    code, out, _ = run(capsys, "sweep", "--max-sum", "3")
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln.startswith("(")]
    assert rows == [rows[0]]
    assert rows[0].startswith("(1,2): pass")


def test_sweep_small(capsys):
    code, out, _ = run(capsys, "sweep", "--max-sum", "9")
    assert code == 0
    assert "FAIL" not in out


def test_sweep_row_count_matches_free_pairs(capsys):
    from leapertour.cli import free_leapers

    code, out, _ = run(capsys, "sweep", "--max-sum", "11")
    rows = [ln for ln in out.splitlines() if ln.startswith("(")]
    assert len(rows) == len(free_leapers(11))


def test_determinism_same_seed_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run(capsys, "generate", "--p", "2", "--q", "5", "--seed", "7", "--output", str(a))
    run(capsys, "generate", "--p", "2", "--q", "5", "--seed", "7", "--output", str(b))
    assert a.read_bytes() == b.read_bytes()
