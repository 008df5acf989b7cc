"""The mutant table: each row breaks one check or formula of the package
and names the tests that must kill it.

A row replaces one exact text, which must occur exactly once in its file,
in a copy of src/, and runs `python -m pytest -q -x` on its node ids in one
subprocess with that copy first on PYTHONPATH.  Only exit code 1, a failing
test, counts as a kill: a mutant that breaks collection (2) or selects no
test (5) fails its row.  Rows run one at a time.  A row marked blind also
makes verify.verify_central_symmetry return True, so that its kill must
come from a check other than the final symmetry test of a tour.

Run with: python -m pytest -m slow tests/test_mutants.py
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]

# verify_central_symmetry's first lines; a blind row makes it return True
BLIND = ("verify.py", "    if not cells:\n        return True\n    ys = [y for _, y in cells]", "    return True")


class Mutant(NamedTuple):
    id: str
    file: str  # under src/leapertour
    old: str
    new: str
    killers: tuple[str, ...]
    blind: bool = False


KEY = "tests/test_keygraph.py::test_key_equals_the_cell_oracle[2-5]"
SYMMETRIC = "tests/test_splice.py::test_symmetric_splice[2-5]"
GOLDEN_SYMMETRIC = "tests/test_golden.py::test_output_is_byte_identical[symmetric-2-5-tour]"
GUARD = "tests/test_complexity.py::test_build_key_makes_no_per_edge_loop"
VERIFY_ORACLE = "tests/test_verify.py::test_verify_tour_agrees_with_the_oracle_on_any_cell_list"
SYMMETRY_ORACLE = "tests/test_verify.py::test_central_symmetry_agrees_with_the_oracle_on_any_cell_list"
PLAIN = "tests/test_splice.py::test_splice_2_5_random_halvings"
STORED_FAMILIES = "tests/test_keygraph.py::test_families_are_the_stored_edges_and_pairwise_disjoint"
FLIP_COUNTS = "tests/test_splice.py::test_splices_flip_each_rhombus_once_per_merge"
TILED = (
    "tests/test_acceptance.py::test_criterion_7_tiled_tours",
    "tests/test_golden.py::test_output_is_byte_identical[tile-2-5-seed3-3x4-grid]",
)

MUTANTS = [
    # geom.reflect's three formulas: build_key's outer pencil checks
    Mutant("reflect-vertical", "geom.py", "return [top - i + 2 * (i % side) for i in ids]",
           "return [top + i - 2 * (i % side) for i in ids]", (KEY, SYMMETRIC), blind=True),
    Mutant("reflect-center", "geom.py", "return [top + side - 1 - i for i in ids]",
           "return [top + side - 2 - i for i in ids]", (KEY, SYMMETRIC), blind=True),
    Mutant("reflect-horizontal", "geom.py", "return [i + side - 1 - 2 * (i % side) for i in ids]",
           "return [i + side - 2 * (i % side) for i in ids]", (KEY, SYMMETRIC), blind=True),
    # expand_pencil's path order: rotated, no rhombus sits at its mirror's
    # index; column-major keeps the mirrors but reorders the rhombi
    Mutant("pencil-order-rotated", "geom.py", "[i + sx * side + sy for i in starts]",
           "[i + sx * side + sy for i in starts[1:] + starts[:1]]",
           ("tests/test_splice.py::test_partners_are_the_index_ranges_of_the_mirror_search[2-5]", SYMMETRIC),
           blind=True),
    Mutant("pencil-order-column-major", "geom.py",
           "for x in range(rect.x1, rect.x2) for y in range(rect.y1, rect.y2)]",
           "for y in range(rect.y1, rect.y2) for x in range(rect.x1, rect.x2)]", (KEY, GOLDEN_SYMMETRIC), blind=True),
    # build_key's degree proof: a dropped or shortened run only sends a
    # valid key down the edge-by-edge path, which the line-event guard sees;
    # a run that drops a row of each core changes the memberships
    Mutant("outer-run-dropped", "keygraph.py", "                degrees[s + d] += 1\n", "", (GUARD,), blind=True),
    Mutant("outer-run-shortened", "keygraph.py", "                degrees[s + height] -= 1\n",
           "                degrees[s + height - 1] -= 1\n", (GUARD,), blind=True),
    Mutant("core-columns-shortened", "keygraph.py", "map(range, starts, range(starts[0] + height, size, side))",
           "map(range, starts, range(starts[0] + height - 1, size, side))", (GUARD,), blind=True),
    Mutant("core-run-dropped", "keygraph.py", "range(core.x1 * side + core.y1, core.x2 * side + core.y1, side)",
           "range(core.x1 * side + core.y1, (core.x2 - 1) * side + core.y1, side)", (KEY, SYMMETRIC), blind=True),
    Mutant("degree-proof-skipped", "keygraph.py", "if not proved or outer_degrees != wanted or", "if not proved or",
           ("tests/test_keygraph.py::test_dropped_pencil_is_named_by_the_degree_check",), blind=True),
    Mutant("core-columns-unchecked", "keygraph.py", "proved = columns == core_ids and not", "proved = not",
           ("tests/test_keygraph.py::test_missing_rhombus_is_named_by_the_degree_check",), blind=True),
    Mutant("outer-edges-shortened", "keygraph.py", "edges += zip(range(s, s + height), range(s + d, s + d + height))",
           "edges += zip(range(s, s + height - 1), range(s + d, s + d + height - 1))", (KEY,), blind=True),
    # the central-symmetry checks this key invariant replaced in the splice
    Mutant("outer-mirror-check-dropped", "keygraph.py", "if [last - a, last - b, last - c] != image:", "if False:",
           ("tests/test_splice.py::test_outer_edge_without_a_mirror_is_named",), blind=True),
    Mutant("rhombus-mirror-check-dropped", "keygraph.py",
           "if tuple(map(sub, repeat(last), c)) != a[::-1] or", "if False and",
           ("tests/test_splice.py::test_rotated_rhombus_is_named_without_a_mirror",), blind=True),
    Mutant("partner-range-shifted", "splice.py", "*range(2 * n - 1, n - 1, -1)", "*range(2 * n - 2, n - 2, -1)",
           ("tests/test_splice.py::test_partners_are_the_index_ranges_of_the_mirror_search[2-5]", GOLDEN_SYMMETRIC),
           blind=True),
    Mutant("centre-index-off", "splice.py", "i, last = ((key.leaper.q - key.leaper.p) ** 2 - 1) // 2",
           "i, last = ((key.leaper.q - key.leaper.p) ** 2 + 1) // 2", (SYMMETRIC,), blind=True),
    Mutant("centre-check-dropped", "splice.py", "if (last - c, last - d, last - a, last - b) != (a, b, c, d):",
           "if False:", ("tests/test_splice.py::test_key_without_a_centre_rhombus_is_refused",), blind=True),
    Mutant("mirrored-bits-check-dropped", "splice.py", "        if bits[i] != bits[j]:\n", "        if False:\n",
           ("tests/test_splice.py::test_mirrored_bits_check_rejects_unpaired_bits",), blind=True),
    # the splices' flips in place: the centre's parity and the partner's
    # flip, which only the symmetric splice makes, and arrays left unflipped
    Mutant("centre-parity-inverted", "splice.py", "    if self_mirror % 2 == 0:\n", "    if self_mirror % 2 == 1:\n",
           (SYMMETRIC, FLIP_COUNTS)),
    Mutant("partner-flip-dropped", "splice.py", "            _flip_rhombus(key, halving, bits, j)\n",
           "            pass\n", (SYMMETRIC, FLIP_COUNTS)),
    Mutant("merge-flips-only-the-bit", "splice.py", "        _flip_rhombus(key, halving, bits, i)\n",
           "        bits[i] ^= 1\n", (SYMMETRIC, PLAIN)),
    Mutant("helper-array-flip-dropped", "splice.py", "    flip(*halving, *r[bit:], *r[:bit], key.leaper.side)",
           "    pass", (SYMMETRIC, PLAIN)),
    # ConstructionError sites: each raise skipped
    Mutant("move-check-dropped", "keygraph.py", "if (u - x, v - y) not in moves:", "if False:",
           ("tests/test_keygraph.py::test_non_leaper_move_names_the_edge",)),
    Mutant("open-pencil-accepted", "keygraph.py", "if paths[0][4] != paths[0][0]:", "if False:",
           ("tests/test_keygraph.py::test_open_rhombus_pencil_names_its_first_cell",)),
    Mutant("shared-rhombus-edge-accepted", "keygraph.py",
           "if not proved and (shared :=", "if False and (shared :=",
           ("tests/test_keygraph.py::test_repeated_rhombus_names_the_shared_edge",)),
    Mutant("inner-outer-overlap-accepted", "keygraph.py", "if both := inner.intersection(outer):",
           "if False:", ("tests/test_keygraph.py::test_pencil_repeating_a_rhombus_edge_overlaps",)),
    Mutant("outer-repeat-accepted", "keygraph.py", "if repeated := _first_repeat(outer):", "if False:",
           ("tests/test_keygraph.py::test_repeat_with_balanced_degrees_names_the_edge",)),
    # build_key's distinctness proof on families: a meet test that never
    # fires, a core moved onto another so that two families meet, and the
    # families' own description of the edges they stand for
    Mutant("families-never-meet", "keygraph.py", "    return any(x1 < u2",
           "    return False and any(x1 < u2",
           ("tests/test_keygraph.py::test_repeat_with_balanced_degrees_names_the_edge",
            "tests/test_keygraph.py::test_families_meet_iff_they_share_an_edge")),
    Mutant("families-meet-when-touching", "keygraph.py", "x1 < u2 and u1 < x2", "x1 <= u2 and u1 <= x2",
           ("tests/test_keygraph.py::test_families_meet_iff_they_share_an_edge",)),
    Mutant("core-moved-onto-core-0", "keygraph.py", "Subboard(2 * p, p + q, p + q, 2 * q),",
           "Subboard(2 * p, p + q, p, q),", (KEY,)),
    Mutant("rhombus-family-of-upper-ends", "keygraph.py", "kind[k] if a < b else kind[(k + 1) % 4]", "kind[k]",
           (STORED_FAMILIES,)),
    Mutant("outer-family-transposed", "keygraph.py",
           "lo // side, lo // side + width, lo % side, lo % side + height",
           "lo // side, lo // side + height, lo % side, lo % side + width", (STORED_FAMILIES,)),
    Mutant("pencil-off-board-accepted", "geom.py", "if not (0 <= x + dx < side and 0 <= y + dy < side):",
           "if False:", ("tests/test_keygraph.py::test_pencil_off_the_board_names_the_cell",)),
    Mutant("flip-without-neighbour", "keygraph.py", "        if row[x] != old:\n", "        if False:\n",
           ("tests/test_splice.py::test_a_rewrite_whose_neighbour_is_missing_names_the_cell",)),
    Mutant("several-cycles-accepted", "keygraph.py", "if len(cycle) != len(first):", "if False:",
           ("tests/test_splice.py::test_symmetric_splice_failures_name_the_pending_rhombus",)),
    Mutant("disconnected-key-accepted", "splice.py", "if not is_connected_edges(set(roots), links):", "if False:",
           ("tests/test_splice.py::test_disconnected_key_graph_fails_loudly",)),
    Mutant("no-seam-switch-accepted", "tile.py", 'raise ConstructionError(f"no switch found between copies',
           'ConstructionError(f"no switch found between copies',
           ("tests/test_tile.py::test_base_whose_seam_strip_holds_no_edge_has_no_switch",)),
    Mutant("find-switch-raise-dropped", "tile.py", '    raise ConstructionError("no switch found between adjacent',
           '    return ConstructionError("no switch found between adjacent',
           ("tests/test_tile.py::test_find_switch_without_a_candidate_is_refused",)),
    Mutant("fold-self-loop-accepted", "fold.py", "if pa == pb:", "if False:",
           ("tests/test_fold.py::test_outer_path_with_both_ends_on_one_projection_is_named",)),
    Mutant("fold-branch-accepted", "fold.py", "if max(degree) > 2:", "if False:",
           ("tests/test_fold.py::test_outer_paths_raises_on_a_branching_cell",)),
    Mutant("fold-cycle-accepted", "fold.py", "if walked.count(1) - len(paths) < len(key.outer_ids):", "if False:",
           ("tests/test_fold.py::test_outer_paths_raises_on_a_cycle",)),
    Mutant("fold-projection-count-accepted", "fold.py", "if len(table[a]) != 1 or len(table[b]) != 1:", "if False:",
           ("tests/test_cli.py::test_construction_error_is_one_error_line[fold]",)),
    Mutant("halve-degree-accepted", "keygraph.py", "if arrays is None:", "if False:",
           ("tests/test_splice.py::test_degree_error_names_a_cell",)),
    Mutant("splice-degree-accepted", "splice.py", "if halving is None:", "if False:",
           ("tests/test_splice.py::test_degree_error_names_a_cell",)),
    Mutant("cli-invalid-tour-accepted", "cli.py", "if not report.valid:", "if False:",
           ("tests/test_cli.py::test_construction_error_is_one_error_line[self-verification]",)),
    Mutant("cli-asymmetric-tour-accepted", "cli.py", "if symmetric and not report.centrally_symmetric:", "if False:",
           ("tests/test_cli.py::test_construction_error_is_one_error_line[asymmetric]",)),
    Mutant("cli-fold-failure-accepted", "cli.py", "if not (report.matches and report.folding_connected):",
           "if False:", ("tests/test_cli.py::test_sweep_failure_is_the_located_fail_row[fold-mismatch]",)),
    # main's pause of the cyclic collector, and its restore of the state found
    Mutant("cli-collector-not-paused", "cli.py", "    gc.disable()\n", "",
           ("tests/test_complexity.py::test_generate_starts_no_garbage_collection",)),
    Mutant("cli-collector-not-restored", "cli.py", "            gc.enable()\n", "            pass\n",
           ("tests/test_cli.py::test_collector_state_comes_back_as_it_was[generate-enabled]",)),
    Mutant("cli-collector-always-enabled", "cli.py", "if enabled:", "if True:",
           ("tests/test_cli.py::test_collector_state_comes_back_as_it_was[generate-disabled]",)),
    # the independent validator's checks, is_free, and components' order
    Mutant("cell-count-check-weakened", "verify.py", "cell_count_ok=(n == width * height),",
           "cell_count_ok=(n <= width * height),", ("tests/test_verify.py::test_truncated_tour_fails_count",)),
    Mutant("first-step-unchecked", "verify.py", "if not set(map(sub, keys[1:], keys)) <= moves:",
           "if not set(map(sub, keys[2:], keys[1:])) <= moves:", (VERIFY_ORACLE,)),
    Mutant("repeat-check-dropped", "verify.py", "if len(set(keys)) < n or not on_board:", "if not on_board:",
           ("tests/test_verify.py::test_repeated_cell_detected",)),
    Mutant("closing-move-unchecked", "verify.py", "report.closed = keys[0] - keys[-1] in moves", "report.closed = True",
           ("tests/test_verify.py::test_open_path_not_closed",)),
    Mutant("key-spacing-narrowed", "verify.py", "s = hi - lo + max(p, q) + 1", "s = hi - lo + 1", (VERIFY_ORACLE,)),
    Mutant("symmetry-rotation-untested", "verify.py",
           "if keys[(i + 1) % n] == second and [c - k for k in keys] == keys[i:] + keys[:i]:",
           "if keys[(i + 1) % n] == second:", (SYMMETRY_ORACLE,)),
    Mutant("symmetry-fallback-accepts", "verify.py", "return all((c - b, c - a) in edges for a, b in edges)",
           "return True", (SYMMETRY_ORACLE,)),
    Mutant("is-free-by-parity", "geom.py", "return math.gcd(b - a, b + a) == 1", "return (b - a) % 2 == 1",
           ("tests/test_verify.py::test_is_free",)),
    Mutant("components-larger-neighbour-first", "keygraph.py", "stack = sorted(adj[start], reverse=True)",
           "stack = sorted(adj[start])", ("tests/test_splice.py::test_engine_matches_the_generic_engine_to_21",)),
    # cycle_partition's scan for each next unseen start
    Mutant("partition-scan-skips-one", "keygraph.py", "seen.index(False, start)) < len(first):",
           "seen.index(False, start + 1)) < len(first):",
           ("tests/test_keygraph.py::test_id_partition_equals_the_tuple_oracle_on_halvings",)),
    # tile's seam strips (their three mutants when they landed)
    Mutant("strips-narrower", "tile.py", "((turns[parity], side - q, side), (turns[1 - parity], 0, q))",
           "((turns[parity], side - q + 1, side), (turns[1 - parity], 0, q - 1))", TILED),
    Mutant("far-strip-strict", "tile.py", "if lo <= u[dj] < hi and lo <= v[dj] < hi",
           "if lo < u[dj] < hi and lo < v[dj] < hi", TILED),
    Mutant("turned-strips-swapped", "tile.py", "(turns[parity], side - q, side)", "(turns[1 - parity], side - q, side)",
           TILED),
    # tile's seams on ids: the offset, and the arrays test of the old edges,
    # which no natural tiling fails, and the folded filter of find_switch
    Mutant("seam-offset-transposed", "tile.py", "offset = (i * height + j) * side",
           "offset = (j * height + i) * side", TILED),
    Mutant("cut-edge-accepted", "tile.py", "if b in (first[a], second[a]) and d in (first[c], second[c]):",
           "if True:", ("tests/test_tile.py::test_replayed_seam_falls_through_a_rejected_cached_switch",)),
    Mutant("cut-ab-accepted", "tile.py", "if b in (first[a], second[a]) and d in", "if d in",
           ("tests/test_tile.py::test_switch_whose_edge_is_not_on_the_board_is_refused",)),
    Mutant("cut-cd-accepted", "tile.py", " and d in (first[c], second[c]):", ":",
           ("tests/test_tile.py::test_switch_whose_edge_is_not_on_the_board_is_refused",)),
    Mutant("find-switch-avoid-ignored", "tile.py", "if avoid.isdisjoint(", "if True or avoid.isdisjoint(",
           ("tests/test_tile.py::test_find_switch_without_a_candidate_is_refused",)),
]


def _run(tmp_path, edits, killers):
    """Copy src/, apply the (file, old, new) edits, and run the killers."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    for file, old, new in edits:
        path = src / "leapertour" / file
        text = path.read_text()
        assert text.count(old) == 1, f"{file}: the text to replace occurs {text.count(old)} times: {old!r}"
        path.write_text(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-m", "slow or not slow", *killers]
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.slow
@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_mutant_is_killed(tmp_path, mutant):
    edits = [(mutant.file, mutant.old, mutant.new)] + ([BLIND] if mutant.blind else [])
    result = _run(tmp_path, edits, mutant.killers)
    assert result.returncode == 1, f"exit {result.returncode}\n{result.stdout[-3000:]}\n{result.stderr[-3000:]}"


@pytest.mark.slow
def test_killers_pass_on_the_blind_unmutated_copy(tmp_path):
    # so each kill above comes from its mutant, not from the blind symmetry test
    killers = sorted({k for m in MUTANTS if m.blind for k in m.killers})
    result = _run(tmp_path, [BLIND], killers)
    assert result.returncode == 0, f"exit {result.returncode}\n{result.stdout[-3000:]}\n{result.stderr[-3000:]}"
