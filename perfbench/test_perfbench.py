"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q

It runs every workload with the minimal op count (--seconds 0), checks that
each declared metric is printed with its unit, and proves that the output
gate counts a corrupted tour as a failed op.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PROVENANCE = ("python", "nproc", "attempted", "tail_percentile", "stages", "digest")


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def test_declaration_matches_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(worker.WORKLOADS)
    assert declared("end_to_end") == run.END_TO_END_UNITS
    assert declared("per_layer") == {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
    assert {m["name"]: m["better"] for m in DECLARED["per_layer"]} == {
        name: better for name, (_, better) in spans.PER_LAYER.items()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(HERE.parent, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, last_line = proc.stdout.splitlines()
    result = json.loads(last_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    report = json.loads(report_line.removeprefix("REPORT "))
    assert all(field in report for field in PROVENANCE)
    reported = {**want, **({} if trace else run.REPORT_ONLY_UNITS)}
    assert {name: m["unit"] for name, m in report["metrics"].items()} == reported
    assert all({"median_ms", "min_ms"} <= set(s) for s in report["stages"].values())


def test_tail_has_ten_ops_beyond_it():
    assert worker.tail([float(v) for v in range(1, 31)]) == (20.0, 100.0 * 20 / 30)
    assert worker.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_op_cost_is_wall_time_in_reference_units():
    records = [
        worker.Record(i, ms, 10, None, False, 0, b"", ref_ms=2.0)
        for i, ms in enumerate([4.0, 6.0, 8.0])
    ]
    metrics = worker.end_to_end(records)
    assert metrics["op_ms.p50"] == 6.0 and metrics["op_cost.p50"] == 3.0
    assert metrics["cells_per_ref"] == pytest.approx(30 / 9)
    assert metrics["cells_per_s"] == pytest.approx(30 / 0.018)


@pytest.fixture(scope="module")
def lt():
    return worker.import_leapertour()


def swap_two_cells(fn):
    def corrupted(cells, *args):
        cells = list(cells)
        mid = len(cells) // 2
        cells[0], cells[mid] = cells[mid], cells[0]
        return fn(cells, *args)

    return corrupted


@pytest.mark.parametrize(
    "workload, formatter",
    [("base", "format_structured"), ("symmetric", "format_svg"), ("tiling", "format_grid")],
)
def test_gate_counts_a_corrupted_output_file(lt, tmp_path, monkeypatch, workload, formatter):
    ops = worker.make_ops(lt, workload, 3, tmp_path)
    assert all(r.failure is None for r in worker.run_loop(lt, ops, 0, None))
    monkeypatch.setattr(lt.render, formatter, swap_two_cells(getattr(lt.render, formatter)))
    records = worker.run_loop(lt, ops, 0, None)
    assert len(records) == 1 and records[0].failure is not None
    assert worker.end_to_end(records)["ok_frac"] == 0.0


def test_gate_counts_a_corrupted_tour_file_on_check(lt, tmp_path):
    ops = worker.make_ops(lt, "check", 3, tmp_path)
    target = tmp_path / "check-2-5.tour"
    lines = target.read_text().splitlines()
    lines[1], lines[50] = lines[50], lines[1]
    target.write_text("\n".join(lines) + "\n")
    records = worker.run_loop(lt, ops, 0, None)
    assert len(records) == len(lt.cli.free_leapers(25))
    failed = [r for r in records if r.failure is not None]
    assert len(failed) == 1 and "exit codes [0, 1]" in failed[0].failure
    assert worker.end_to_end(records)["ok_frac"] == pytest.approx(1 - 1 / len(records))


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "base", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
