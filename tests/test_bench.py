import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench.py"
spec = importlib.util.spec_from_file_location("bench", TOOL)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

LEAPER_STAGES = {"build_key", "halve", "splice", "symmetric_splice", "check_fold"}
TOUR_STAGES = {
    "verify_tour", "format_structured", "format_grid", "format_svg", "parse_structured", "verify_cli", "generate",
}


def test_one_small_rung_records_every_stage(capsys):
    # one rung and one repeat: the keys only, no timing threshold
    record = bench.run([(2, 5)], [], 1)
    capsys.readouterr()
    assert set(record) == {"python", "cores", "repeat", "rungs", "like_density", "slopes", "flagged", "seconds"}
    assert record["repeat"] == 1 and record["cores"] >= 1
    assert record["like_density"] == ["(1,40)", "(1,80)", "(2,101)"]
    assert list(record["rungs"]) == ["(2,5)"]
    rung = record["rungs"]["(2,5)"]
    assert (rung["cells"], rung["rhombi"]) == (196, 18)
    assert set(rung["stages"]) == LEAPER_STAGES | TOUR_STAGES == set(bench.LEAPER_STAGES) | TOUR_STAGES
    for t in rung["stages"].values():
        # one sample is its own median, quartiles and min
        assert set(t) == {"median_ms", "q1_ms", "q3_ms", "min_ms"} and len(set(t.values())) == 1
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


def test_leaper_stages_are_fitted_over_the_rungs_of_like_density():
    def rung(cells, ms):
        return {"cells": cells, "stages": {"splice": {"median_ms": ms}, "verify_tour": {"median_ms": ms}}}

    # a sparse small rung, then three dense ones on which the time is linear
    rungs = {"(12,25)": rung(100, 0.01), "(1,40)": rung(400, 4.0), "(1,80)": rung(1600, 16.0)}
    rungs["(2,101)"] = rung(6400, 64.0)
    fitted = bench.slopes(rungs)
    assert fitted["splice"]["fit"] == 1.0
    assert fitted["splice"]["adjacent"] == fitted["verify_tour"]["adjacent"]
    assert [a[2] for a in fitted["splice"]["adjacent"]] == [4.322, 1.0, 1.0]
    assert fitted["verify_tour"]["fit"] > bench.SLOPE_FLAG  # a tour stage is fitted over every rung
    # without two rungs of like density, a leaper stage fits no slope
    assert bench.slopes({"(12,25)": rung(100, 1.0), "(1,40)": rung(400, 4.0)})["splice"]["fit"] is None


def test_spread_is_the_median_quartiles_and_min():
    assert bench.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == {"median_ms": 3.0, "q1_ms": 1.5, "q3_ms": 4.5, "min_ms": 1.0}
