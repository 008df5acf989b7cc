import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench.py"
spec = importlib.util.spec_from_file_location("bench", TOOL)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

LEAPER_STAGES = {"build_key", "halve", "splice", "symmetric_splice", "check_fold"}
TOUR_STAGES = {"verify_tour", "format_structured", "format_grid", "format_svg", "generate"}


def test_one_small_rung_records_every_stage(capsys):
    # one rung and one repeat: the keys only, no timing threshold
    record = bench.run([(2, 5)], [], 1)
    capsys.readouterr()
    assert set(record) == {"python", "cores", "repeat", "rungs", "slopes", "flagged", "seconds"}
    assert record["repeat"] == 1 and record["cores"] >= 1
    assert list(record["rungs"]) == ["(2,5)"]
    rung = record["rungs"]["(2,5)"]
    assert rung["cells"] == 196
    assert set(rung["stages"]) == LEAPER_STAGES | TOUR_STAGES
    assert all(set(t) == {"median_ms", "min_ms"} for t in rung["stages"].values())
    assert record["slopes"] == {} and record["flagged"] == []  # one rung fits no slope


def test_next_free_skips_the_files_there(tmp_path):
    assert bench.next_free(tmp_path) == tmp_path / "BENCH_1.json"
    (tmp_path / "BENCH_1.json").write_text("{}")
    assert bench.next_free(tmp_path) == tmp_path / "BENCH_2.json"


def test_slopes_fit_the_log_log_growth():
    def rung(cells, ms):
        return {"cells": cells, "stages": {"stage": {"median_ms": ms, "min_ms": ms}}}

    # time linear in cells, then quadratic
    linear = bench.slopes({"a": rung(100, 1.0), "b": rung(400, 4.0), "c": rung(1600, 16.0)})
    assert linear["stage"] == {"fit": 1.0, "adjacent": [[100, 400, 1.0], [400, 1600, 1.0]]}
    square = bench.slopes({"a": rung(100, 1.0), "b": rung(200, 4.0)})
    assert square["stage"]["fit"] == 2.0 > bench.SLOPE_FLAG
