import argparse
import dataclasses
import gc
import re
import time

import pytest

import leapertour.cli as cli
import leapertour.fold as fold
import leapertour.keygraph as keygraph
import leapertour.splice as splice
import leapertour.tile as tile
import leapertour.verify as verify
from leapertour.cli import free_leapers, main
from leapertour.geom import Leaper, PencilSpec, Subboard
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


@pytest.mark.parametrize(
    "extra,checks",
    [((), 0), (("--tile-k", "2", "--tile-l", "2"), 0), (("--symmetric",), 1)],
    ids=["plain", "tiled", "symmetric"],
)
def test_generate_checks_symmetry_only_when_asked(capsys, monkeypatch, extra, checks):
    import leapertour.verify as verify

    calls = []
    real = verify.verify_central_symmetry
    monkeypatch.setattr(verify, "verify_central_symmetry", lambda *a: calls.append(a) or real(*a))
    code, _, _ = run(capsys, "generate", "--p", "2", "--q", "5", *extra)
    assert code == 0
    assert len(calls) == checks


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


def _refuse_construction(monkeypatch):
    def no_construction(leaper):
        raise AssertionError("key graph built for an oversized board")

    monkeypatch.setattr(keygraph, "build_key", no_construction)
    monkeypatch.setattr(fold, "build_key", no_construction)


@pytest.mark.parametrize(
    "argv,board,cells",
    [
        (("generate", "--p", "1", "--q", "100000"), "200002x200002", 40000800004),
        (("fold", "--p", "1", "--q", "100000"), "200002x200002", 40000800004),
        (
            ("generate", "--p", "2", "--q", "5", "--tile-k", "100000", "--tile-l", "100000"),
            "1400000x1400000",
            1960000000000,
        ),
        (("generate", "--p", "2", "--q", "5", "--tile-k", "1", "--tile-l", "5103"), "14x71442", 1000188),
    ],
    ids=["huge-q", "fold-huge-q", "huge-tiling", "just-above"],
)
def test_oversized_board_is_usage_error(capsys, monkeypatch, argv, board, cells):
    _refuse_construction(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: the {board} board has {cells} cells, above the limit of 1000000\n"


def test_board_at_the_cell_limit_is_built(capsys, monkeypatch):
    # the largest board measured so far, 40x40 copies of the (2,5) tour, stays admitted
    assert Leaper(2, 5).side ** 2 * 40 * 40 <= cli.MAX_CELLS
    monkeypatch.setattr(cli, "MAX_CELLS", 14 * 14 * 2 * 3)
    code, out, _ = run(capsys, "generate", "--p", "2", "--q", "5", "--tile-k", "2", "--tile-l", "3")
    assert code == 0 and out.startswith("2 5 28 42\n")
    monkeypatch.setattr(cli, "MAX_CELLS", 14 * 14 * 2 * 3 - 1)
    _refuse_construction(monkeypatch)
    code, _, err = run(capsys, "generate", "--p", "2", "--q", "5", "--tile-k", "2", "--tile-l", "3")
    assert (code, err) == (2, "error: the 28x42 board has 1176 cells, above the limit of 1175\n")


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        if self.prog == "leapertour":  # not a subcommand's parser
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()

    def usage_error():
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--p", "1"])
        assert exc.value.code == 2
        return capsys.readouterr().err

    path = tmp_path / "tour.txt"
    assert run(capsys, "generate", "--p", "1", "--q", "2", "--output", str(path)) == (0, "", "")
    first_error = usage_error()
    assert first_error.endswith("leapertour generate: error: the following arguments are required: --q\n")
    code, out, _ = run(capsys, "verify", str(path))
    assert (code, out.splitlines()[-1]) == (0, "VALID")
    code, out, _ = run(capsys, "fold", "--p", "1", "--q", "2")
    assert code == 0 and out.endswith("MATCH, O acyclic, F connected\n")
    assert run(capsys, "generate", "--p", "1", "--q", "2") == (0, path.read_text(), "")
    assert usage_error() == first_error
    assert len(built) == 1


def test_non_free_leaper_is_usage_error(capsys):
    code, _, err = run(capsys, "generate", "--p", "2", "--q", "4")
    assert code == 2
    assert err == (
        "error: q - p and q + p are not relatively prime (common factor 2); "
        "the (2,4)-leaper is not free and admits no tour\n"
    )


def test_verify_with_wrong_q(tmp_path, capsys):
    path = tmp_path / "tour.txt"
    run(capsys, "generate", "--p", "1", "--q", "2", "--output", str(path))
    path.write_text(path.read_text().replace("1 2 6 6\n", "1 4 6 6\n", 1))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "all_moves_legal=False" in out


def test_verify_truncated_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 6 6\n0 0\n1 2 oops\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "text,message",
    [
        (b"", "empty tour file"),
        (b"1 2 6\n0 0\n", "bad header line '1 2 6'"),
        (b"1 2 6 6\n0 0\n1 2 3\n", "bad tour line '1 2 3'"),
    ],
    ids=["empty tour file", "bad header line", "bad tour line"],
)
def test_unreadable_tour_file_is_one_usage_error_line(tmp_path, capsys, text, message):
    path = tmp_path / "bad.txt"
    path.write_bytes(text)
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out, err) == (2, "", f"error: cannot read tour file: {message}\n")


def test_verify_reads_no_table_sized_from_the_header(tmp_path, capsys):
    # the header is untrusted: a board of 10**18 cells is one comparison
    # with the one cell listed, not a table of the board's side
    path = tmp_path / "huge.txt"
    path.write_bytes(b"1 2 1000000000 1000000000\n0 0\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", str(path))
    assert time.perf_counter() - start < 0.5
    assert code == 1 and "cell_count_ok=False" in out.splitlines()


@pytest.mark.parametrize(
    "text,extra",
    [
        ("0 0 1 1\n0 0\n", []),
        ("0 1 2 1\n0 0\n1 0\n", []),
        ("1 2 -6 6\n0 0\n", []),
        ("1 2 6 0\n0 0\n", []),
        ("-1 2 6 6\n0 0\n", ["--require-symmetry"]),
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


def test_sweep_covers_only_knight_at_sum_3(capsys):
    code, out, _ = run(capsys, "sweep", "--max-sum", "3")
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln.startswith("(")]
    assert rows == [rows[0]]
    assert rows[0].startswith("(1,2): pass")


def _refuse_listing(max_sum):
    raise AssertionError("free leapers listed for an oversized sweep")


@pytest.mark.parametrize(
    "max_sum,board,cells", [("501", "1002x1002", 1004004), ("100000", "200000x200000", 40000000000)]
)
def test_sweep_above_the_cell_limit_is_usage_error(capsys, monkeypatch, max_sum, board, cells):
    # the largest board of p + q = max_sum has side 2 * max_sum
    monkeypatch.setattr(cli, "free_leapers", _refuse_listing)
    code, out, err = run(capsys, "sweep", "--max-sum", max_sum)
    assert (code, out, err) == (2, "", f"error: the {board} board has {cells} cells, above the limit of 1000000\n")


def test_sweep_at_the_cell_limit_runs(capsys, monkeypatch):
    assert (2 * 500) ** 2 == cli.MAX_CELLS
    monkeypatch.setattr(cli, "MAX_CELLS", 6 * 6)
    code, out, _ = run(capsys, "sweep", "--max-sum", "3")
    assert code == 0 and out.startswith("(1,2): pass")
    monkeypatch.setattr(cli, "MAX_CELLS", 6 * 6 - 1)
    monkeypatch.setattr(cli, "free_leapers", _refuse_listing)
    code, out, err = run(capsys, "sweep", "--max-sum", "3")
    assert (code, out, err) == (2, "", "error: the 6x6 board has 36 cells, above the limit of 35\n")


def test_sweep_small(capsys):
    code, out, _ = run(capsys, "sweep", "--max-sum", "9")
    assert code == 0
    assert "FAIL" not in out


def test_sweep_row_count_matches_free_pairs(capsys):
    from leapertour.cli import free_leapers

    code, out, _ = run(capsys, "sweep", "--max-sum", "11")
    rows = [ln for ln in out.splitlines() if ln.startswith("(")]
    assert len(rows) == len(free_leapers(11))


def test_sweep_builds_each_key_once(capsys, monkeypatch):
    import leapertour.fold as fold
    import leapertour.keygraph as keygraph
    from leapertour.cli import free_leapers

    built = []
    for module in (keygraph, fold):
        real = module.build_key
        monkeypatch.setattr(
            module, "build_key", lambda leaper, real=real: built.append(leaper) or real(leaper)
        )
    code, out, _ = run(capsys, "sweep", "--max-sum", "9")
    assert code == 0 and "FAIL" not in out
    assert sorted((lp.p, lp.q) for lp in built) == sorted(free_leapers(9))


def test_sweep_checks_symmetry_once_per_leaper(capsys, monkeypatch):
    # only the symmetric tour's report is read for symmetry
    calls = []
    real = verify.verify_central_symmetry
    monkeypatch.setattr(verify, "verify_central_symmetry", lambda *a: calls.append(a) or real(*a))
    code, out, _ = run(capsys, "sweep", "--max-sum", "9")
    assert code == 0 and "FAIL" not in out
    assert len(calls) == len(free_leapers(9)) == 9


def _cut_outer_path(monkeypatch):
    """Make fold's key graphs lack one outer edge between two cells outside
    every core, so build_folding finds a path end with no projection."""
    real = fold.build_key

    def cut(leaper):
        key = real(leaper)
        gone = next(e for e in key.outer_ids if key.membership[e[0]] == key.membership[e[1]] == 0)
        return dataclasses.replace(key, outer_ids=tuple(e for e in key.outer_ids if e != gone))

    monkeypatch.setattr(fold, "build_key", cut)


def _never_merge(monkeypatch):
    monkeypatch.setattr(splice, "_merge_flip", lambda *a: False)


def _push_pencil_off(monkeypatch):
    """Move outer pencil A's base right until its move (q, p) leaves the board."""
    real = keygraph._outer_pencils

    def pushed(leaper):
        specs = real(leaper)
        p, q, side = leaper.p, leaper.q, leaper.side
        specs[0] = PencilSpec(Subboard(side - q, side - q + p, 0, q), ((q, p),))
        return specs

    monkeypatch.setattr(keygraph, "_outer_pencils", pushed)


def _no_switches(monkeypatch):
    monkeypatch.setattr(tile, "switch_candidates", lambda a, b, leaper: iter(()))


def _cut_copy(monkeypatch):
    """Make tile's one switch cut the first copy of the (2,5) base tour in
    two: it swaps two of that copy's tour edges for chords and joins no copies."""
    key = keygraph.build_key(Leaper(2, 5))
    t = splice.splice(key, [0] * len(key.rhombus_ids)).cells
    cut = tile.Switch(t[0], t[1], t[5], t[6])
    monkeypatch.setattr(tile, "switch_candidates", lambda a, b, leaper: iter([cut]))


def _close_outer_path(monkeypatch):
    """Join the ends of the first outer path, so outer_paths finds a cycle."""
    real = fold.outer_paths

    def closed(key):
        ends = real(key)[0]
        return real(dataclasses.replace(key, outer_ids=key.outer_ids + (ends,)))

    monkeypatch.setattr(fold, "outer_paths", closed)


def _drop_verified_cell(monkeypatch):
    """Hand the validator the tour without its last cell."""
    real = verify.verify_tour
    monkeypatch.setattr(verify, "verify_tour", lambda cells, *a: real(cells[:-1], *a))


def _drop_spliced_cell(monkeypatch):
    """Make the plain splice, but not the symmetric one, lose its last cell."""
    real = splice.splice
    monkeypatch.setattr(splice, "splice", lambda *a: splice.Tour(cells=real(*a).cells[:-1]))


def _asymmetric(monkeypatch):
    """Make the validator read every tour as valid but not centrally symmetric."""
    monkeypatch.setattr(verify, "verify_central_symmetry", lambda *a: False)


def _keep_only_the_halving(monkeypatch):
    """Make both splices run on a key graph that is only its all-zero
    halving, as outer edges without rhombi: every cell keeps degree 2, and
    the halving's cycles, more than one for each leaper run here, are its
    components."""
    real, real_symmetric = splice.splice, splice.symmetric_splice

    def halving_only(key):
        halving = tuple(keygraph.halving_ids(key, [0] * len(key.rhombus_ids)))
        return dataclasses.replace(key, rhombus_ids=(), outer_ids=halving)

    monkeypatch.setattr(splice, "splice", lambda key, bits: real(halving_only(key), []))
    monkeypatch.setattr(splice, "symmetric_splice", lambda key: real_symmetric(halving_only(key)))


@pytest.mark.parametrize(
    "inject,argv,message",
    [
        (_never_merge, ("generate",), r"splice left 6 cycles, the second from cell \(0, 2\)"),
        (
            _never_merge,
            ("generate", "--symmetric"),
            r"symmetric splice left 5 cycles, the second from cell \(0, 4\)",
        ),
        (_cut_outer_path, ("fold",), r"outer path end \(\d+, \d+\) has 0 core projections, not 1"),
        (_push_pencil_off, ("generate",), r"pencil path leaves the 14x14 board at \(14, 2\)"),
        (
            _no_switches,
            ("generate", "--tile-k", "2", "--tile-l", "1"),
            r"no switch found between copies \(0, 0\) and \(1, 0\) of the base tour",
        ),
        (
            _cut_copy,
            ("generate", "--tile-k", "2", "--tile-l", "1"),
            r"2x1 tiling of the base tour left 3 cycles, the second from cell \(2, 5\)",
        ),
        (
            _close_outer_path,
            ("fold", "--dump"),
            r"outer graph contains a cycle through cell \(0, 7\)",
        ),
        (
            _drop_verified_cell,
            ("generate",),
            r"self-verification failed: 195 cells listed, board has 196",
        ),
        (
            _asymmetric,
            ("generate", "--symmetric"),
            r"self-verification failed: tour is not centrally symmetric",
        ),
        (_keep_only_the_halving, ("generate",), r"splice left 6 cycles, the second from cell \(0, 2\)"),
        (
            _keep_only_the_halving,
            ("generate", "--symmetric"),
            r"key graph is not connected: cell \(0, 2\) is not reached from cell \(0, 0\)",
        ),
    ],
    ids=[
        "generate", "symmetric", "fold", "pencil", "tile", "tile-pieces", "fold-cyclic",
        "self-verification", "asymmetric", "disconnected", "disconnected-symmetric",
    ],
)
def test_construction_error_is_one_error_line(capsys, monkeypatch, inject, argv, message):
    inject(monkeypatch)
    code, out, err = run(capsys, *argv, "--p", "2", "--q", "5")
    assert code == 1
    assert out == ""
    # the fullmatch also proves that the leaper is named once
    assert re.fullmatch(rf"error: \(2,5\)-leaper: {message}\n", err), err
    assert "Traceback" not in err


def _fold_mismatch(monkeypatch):
    """Make fold expect a crisscross graph with no edges."""
    real = fold.build_crisscross
    monkeypatch.setattr(
        fold, "build_crisscross", lambda m, n: dataclasses.replace(real(m, n), ids=frozenset())
    )


def _fold_disconnected(monkeypatch):
    """Make both fold graphs edgeless: they match, and neither is connected."""
    for name in ("build_folding", "build_crisscross"):
        real = getattr(fold, name)
        monkeypatch.setattr(
            fold, name, lambda *a, real=real: dataclasses.replace(real(*a), ids=frozenset())
        )


@pytest.mark.parametrize(
    "inject,message",
    [
        (_close_outer_path, "outer graph contains a cycle through cell (0, 3)"),
        (
            _fold_mismatch,
            "folding graph differs from R(1,0): only the folding graph has the edge (0, 0, 1)-(0, 0, 2)",
        ),
        (_fold_disconnected, "folding graph has 2 components, the second from vertex (0, 0, 2)"),
        (_drop_spliced_cell, "self-verification failed: 35 cells listed, board has 36"),
        (_asymmetric, "self-verification failed: tour is not centrally symmetric"),
    ],
    ids=["fold-cyclic", "fold-mismatch", "fold-disconnected", "plain", "symmetric"],
)
def test_sweep_failure_is_the_located_fail_row(capsys, monkeypatch, inject, message):
    inject(monkeypatch)
    code, out, err = run(capsys, "sweep", "--max-sum", "3")
    assert (code, out, err) == (1, f"(1,2): FAIL  {message}\n", "")


def _assert_every_sweep_row_fails(capsys):
    code, out, err = run(capsys, "sweep", "--max-sum", "9")
    assert code == 1
    assert err == ""
    rows = out.splitlines()
    assert [row.split(":")[0] for row in rows] == [f"({p},{q})" for p, q in free_leapers(9)]
    assert all(re.fullmatch(r"\(\d+,\d+\): FAIL  \S.*", row) for row in rows), rows


def test_sweep_reports_a_construction_error_and_goes_on(capsys, monkeypatch):
    # a disconnected key graph fails every row; never merging would pass the
    # small leapers whose halvings need no merge
    _keep_only_the_halving(monkeypatch)
    _assert_every_sweep_row_fails(capsys)
    code, out, _ = run(capsys, "sweep", "--max-sum", "9")
    # the plain splice runs first: each row names its halving's cycle count
    # and the smallest cell off its cycle through (0, 0)
    counts = [2, 6, 2, 10, 6, 2, 14, 18, 2]
    cells = [(0, 2), (0, 2), (0, 1), (0, 2), (0, 2), (0, 2), (0, 2), (0, 1), (0, 1)]
    assert out.splitlines() == [
        f"({p},{q}): FAIL  splice left {n} cycles, the second from cell {cell}"
        for (p, q), n, cell in zip(free_leapers(9), counts, cells, strict=True)
    ]


def test_sweep_reports_a_pencil_error_and_goes_on(capsys, monkeypatch):
    _push_pencil_off(monkeypatch)
    _assert_every_sweep_row_fails(capsys)


def _unexpected_error(monkeypatch):
    def broken(leaper):
        raise RuntimeError("not a construction error")

    monkeypatch.setattr(keygraph, "build_key", broken)


# commands that end in exit 0, in a usage error raised inside the command
# (2), in a construction error (1), and in an exception main does not catch;
# "TOUR" stands for a centrally symmetric (2,5) tour file
COMMANDS = [
    (None, ("generate", "--p", "2", "--q", "5"), 0),
    (None, ("generate", "--p", "2", "--q", "5", "--symmetric"), 0),
    (None, ("generate", "--p", "2", "--q", "5", "--seed", "3", "--tile-k", "3", "--tile-l", "4", "--format", "grid"), 0),
    (None, ("fold", "--p", "2", "--q", "5", "--dump"), 0),
    (None, ("verify", "TOUR", "--require-symmetry"), 0),
    (None, ("sweep", "--max-sum", "11"), 0),
    (None, ("generate", "--p", "1", "--q", "2", "--tile-k", "0"), 2),
    (None, ("generate", "--p", "2", "--q", "4"), 2),
    (_never_merge, ("generate", "--p", "2", "--q", "5"), 1),
    (_unexpected_error, ("generate", "--p", "2", "--q", "5"), RuntimeError),
]
COMMAND_IDS = [
    "generate", "symmetric", "tiled", "fold-dump", "verify", "sweep",
    "tile-k-0", "not-free", "construction-error", "unexpected-error",
]


def _run_command(tmp_path, capsys, monkeypatch, inject, argv, code):
    """Run one of COMMANDS through main and check its exit code."""
    if "TOUR" in argv:
        tour = tmp_path / "sym.txt"
        assert run(capsys, "generate", "--p", "2", "--q", "5", "--symmetric", "--output", str(tour))[0] == 0
        argv = tuple(str(tour) if a == "TOUR" else a for a in argv)
    if inject:
        inject(monkeypatch)
    if code is RuntimeError:
        with pytest.raises(RuntimeError):
            main(list(argv))
    else:
        assert run(capsys, *argv)[0] == code


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("inject,argv,code", COMMANDS, ids=COMMAND_IDS)
def test_collector_state_comes_back_as_it_was(tmp_path, capsys, monkeypatch, enabled, inject, argv, code):
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        _run_command(tmp_path, capsys, monkeypatch, inject, argv, code)
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()


@pytest.mark.parametrize("inject,argv,code", COMMANDS, ids=COMMAND_IDS)
def test_commands_build_no_reference_cycles(tmp_path, capsys, monkeypatch, inject, argv, code):
    # main pauses the collector during a command, which leaks nothing only
    # while a command's objects form no reference cycle: with the collector
    # off, the collection after the command finds nothing to free
    was = gc.isenabled()
    try:
        gc.disable()
        cli.build_parser()  # its first build leaves argparse's cycles
        gc.collect()
        _run_command(tmp_path, capsys, monkeypatch, inject, argv, code)
        assert gc.collect() == 0
    finally:
        gc.enable() if was else gc.disable()


def test_determinism_same_seed_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run(capsys, "generate", "--p", "2", "--q", "5", "--seed", "7", "--output", str(a))
    run(capsys, "generate", "--p", "2", "--q", "5", "--seed", "7", "--output", str(b))
    assert a.read_bytes() == b.read_bytes()
