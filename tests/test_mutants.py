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

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]

# verify_central_symmetry's first test; a blind row makes it return True
# before its early exit and its key path
BLIND = ("verify.py", "    if not cells:\n        return True\n", "    return True\n")


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
VERIFY_ORACLE = "tests/test_verify.py::test_verify_tour_agrees_with_the_oracle_on_any_cell_list"
SYMMETRY_ORACLE = "tests/test_verify.py::test_central_symmetry_agrees_with_the_oracle_on_any_cell_list"
PLAIN = "tests/test_splice.py::test_splice_2_5_random_halvings"
STORED_FAMILIES = "tests/test_keygraph.py::test_families_are_the_stored_edges_and_pairwise_disjoint"
FLIP_COUNTS = "tests/test_splice.py::test_splices_flip_each_rhombus_once_per_merge"
CONNECTIVITY = "tests/test_keygraph.py::test_connectivity_answers_are_the_networkx_ones"
FOLD_DISCONNECTED = "tests/test_cli.py::test_sweep_failure_is_the_located_fail_row[fold-disconnected]"
PARSE_EDITS = "tests/test_render.py::test_parse_structured_matches_the_line_reader_on_each_edit_of_each_line"
PENCIL_WALK = "tests/test_geom.py::test_pencil_ids_match_a_cell_walk"
PENCIL_CYCLES = "tests/test_geom.py::test_forward_rhombus_pencil_yields_closed_cycles"
CORE_OFF_BOARD = "tests/test_keygraph.py::test_core_off_the_board_names_its_first_cell_off_it"
CORE_OFF_STEP = "tests/test_keygraph.py::test_core_off_its_step_names_the_first_cell_it_misses"
FOLD_ORACLE = "tests/test_fold.py::test_check_fold_matches_the_tuple_oracle[2-5]"
BENT_MOVE = "tests/test_keygraph.py::test_bent_rhombus_move_followed_by_its_core_names_the_edge"
TILED = (
    "tests/test_acceptance.py::test_criterion_7_tiled_tours",
    "tests/test_golden.py::test_output_is_byte_identical[tile-2-5-seed3-3x4-grid]",
)

MUTANTS = [
    # geom.reflect, the vertical mirror of each outer pencil: build_key's
    # degree and families proofs
    Mutant("reflect-vertical", "geom.py", "return [top - i + 2 * (i % side) for i in ids]",
           "return [top + i - 2 * (i % side) for i in ids]", (KEY, SYMMETRIC), blind=True),
    # build_outer's mirror copies, id i to last - i of the identity and
    # vertical copies
    Mutant("centre-copy-off-by-one", "keygraph.py", "[last - i for i in identity]", "[last - 1 - i for i in identity]",
           (KEY, SYMMETRIC), blind=True),
    Mutant("horizontal-copy-is-the-vertical", "keygraph.py", "[last - i for i in vertical])", "vertical)",
           (KEY, SYMMETRIC), blind=True),
    # expand_pencil's path order, rotated or column-major, which the key
    # oracle's rhombi follow but build_key's, the cores' cells, do not
    Mutant("pencil-order-rotated", "geom.py", "[i + sx * side + sy for i in starts]",
           "[i + sx * side + sy for i in starts[1:] + starts[:1]]", (PENCIL_WALK, PENCIL_CYCLES)),
    Mutant("pencil-order-column-major", "geom.py",
           "for x in range(rect.x1, rect.x2) for y in range(rect.y1, rect.y2)]",
           "for y in range(rect.y1, rect.y2) for x in range(rect.x1, rect.x2)]", (PENCIL_WALK,)),
    # the rhombi as the cores' id columns: each core's columns in reverse,
    # or the four cores' columns zipped from core 1, which rotates every
    # rhombus, so no rhombus sits at its mirror's index or keeps its matchings
    Mutant("core-id-columns-reversed", "keygraph.py", "map(range, starts, range(starts.start + height, starts.stop",
           "map(range, reversed(starts), reversed(range(starts.start + height, starts.stop)",
           (KEY, "tests/test_keygraph.py::test_key_ids_equal_the_pencil_expansion_oracle"), blind=True),
    Mutant("core-id-columns-rotated", "keygraph.py", "for core in kind))))", "for core in kind[1:] + kind[:1]))))",
           (KEY, GOLDEN_SYMMETRIC), blind=True),
    # build_key's degree proof, the cover of the cores and the outer
    # families' lower and upper ends: the lower or upper ends dropped, every
    # run shortened, a core column one short, a core counted twice, or the
    # balance's ends swapped fails the proof on every key; a run that drops
    # a row of each core changes the memberships; a cell's membership that
    # ignores the cores' rows misnames the counts
    Mutant("outer-run-dropped", "keygraph.py", "for k in (0, d)]", "for k in (d,)]", (KEY,), blind=True),
    Mutant("upper-end-shift-dropped", "keygraph.py", "for k in (0, d)]", "for k in (0,)]", (KEY,), blind=True),
    Mutant("outer-run-shortened", "keygraph.py", "            balance[s + y2 - y1] -= 1\n",
           "            balance[s + y2 - y1 - 1] -= 1\n", (KEY,), blind=True),
    Mutant("core-columns-shortened", "keygraph.py", "range(starts.start + height, starts.stop + height, side)",
           "range(starts.start + height - 1, starts.stop + height - 1, side)", (KEY,), blind=True),
    Mutant("core-run-dropped", "keygraph.py", "(0, c.x1, c.x2, c.y1, c.y2)",
           "(0, c.x1, c.x2 - 1, c.y1, c.y2)", (KEY, SYMMETRIC), blind=True),
    Mutant("core-counted-twice", "keygraph.py", "c.y2) for c in cores.all()]",
           "c.y2) for c in cores.all() + cores.forward[:1]]", (KEY,), blind=True),
    Mutant("balance-ends-swapped", "keygraph.py", "balance = [-2] + [0] * (size - 1) + [2]",
           "balance = [2] + [0] * (size - 1) + [-2]", (KEY,), blind=True),
    Mutant("degree-proof-skipped", "keygraph.py", "    if any(balance):", "    if False:",
           ("tests/test_keygraph.py::test_dropped_pencil_is_named_by_the_degree_check",), blind=True),
    Mutant("degree-outer-count-unlocated", "keygraph.py", "outer {2 - e + balance[i]}",
           "outer {2 - e}", ("tests/test_keygraph.py::test_repeated_pencil_is_named_by_the_degree_check",)),
    Mutant("degree-membership-ignores-rows", "keygraph.py", "c.x1 <= x < c.x2 and c.y1 <= y < c.y2 for c",
           "c.x1 <= x < c.x2 for c", ("tests/test_keygraph.py::test_missing_rhombus_is_named_by_the_degree_check",
                                     "tests/test_keygraph.py::test_degree_mismatch_is_the_per_cell_oracle")),
    # build_inner's core checks: a core off the board, or a step that does
    # not take its core onto the next, accepted, the bottom edge of the
    # board unchecked, the pencils named swapped, and a step naming the
    # next core's first cell, not the first cell of one not in the other
    Mutant("core-off-board-accepted", "keygraph.py",
           "            if core.x1 < 0 or core.y1 < 0 or core.x2 > side or core.y2 > side:",
           "            if False:", (CORE_OFF_BOARD,), blind=True),
    Mutant("core-board-bottom-unchecked", "keygraph.py", "if core.x1 < 0 or core.y1 < 0 or", "if core.x1 < 0 or",
           (CORE_OFF_BOARD + "[below]",)),
    Mutant("rhombus-step-accepted", "keygraph.py", "            if moved != to:", "            if False:",
           (CORE_OFF_STEP, "tests/test_keygraph.py::test_open_rhombus_pencil_names_its_first_cell"), blind=True),
    Mutant("core-pencils-named-swapped", "keygraph.py", 'zip(("forward", "backward"), (cores.forward',
           'zip(("backward", "forward"), (cores.forward', (CORE_OFF_STEP,)),
    Mutant("step-names-the-next-corner", "keygraph.py", "cell = min(set(moved.cells()) ^ set(to.cells()))",
           "cell = min(to.cells())", (CORE_OFF_STEP + "[moved]",)),
    Mutant("outer-edges-shortened", "keygraph.py",
           "edges += zip(range(s, s + y2 - y1), range(s + d, s + d + y2 - y1))",
           "edges += zip(range(s, s + y2 - y1 - 1), range(s + d, s + d + y2 - y1 - 1))", (KEY,), blind=True),
    # the rhombi's central symmetry, proved on the cores: a skipped check, a
    # mirror rectangle moved by one, or core 3 compared with core 0
    Mutant("core-mirror-accepted", "keygraph.py", "if _mirror(c, side) != a or _mirror(d, side) != b:", "if False:",
           ("tests/test_splice.py::test_cores_off_their_mirrors_name_rhombus_0[2-5]",), blind=True),
    Mutant("mirror-rectangle-moved", "keygraph.py", "side - rect.y2, side - rect.y1)",
           "side - rect.y2 + 1, side - rect.y1 + 1)",
           (KEY, "tests/test_keygraph.py::test_mirror_rectangle_is_the_reversed_mirror_of_its_ids")),
    Mutant("core-3-off-its-mirror", "keygraph.py", "_mirror(d, side) != b:", "_mirror(d, side) != a:", (KEY,)),
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
    Mutant("bent-rhombus-move-accepted", "keygraph.py", "            _check_move(a, b, side, moves)\n",
           "            pass\n", (BENT_MOVE,)),
    # build_key's distinctness proof on families: each of its three raises
    # skipped, a meet test that never fires, the shared edge it names taken
    # from one rectangle's first cell, not the meet's, a core moved onto
    # another, which the step into it no longer reaches, and the
    # families' own description of the edges they stand for
    Mutant("shared-rhombus-step-accepted", "keygraph.py", "    if shared := _first_shared(families, side):",
           "    if False:", ("tests/test_keygraph.py::test_repeated_rhombus_names_the_shared_edge",)),
    Mutant("inner-outer-meet-accepted", "keygraph.py", "if shared and shared[1] < len(families):", "if False:",
           ("tests/test_keygraph.py::test_pencil_repeating_a_rhombus_edge_overlaps",)),
    Mutant("balanced-repeat-accepted", "keygraph.py", "    if shared:  # a repeat", "    if False:  # a repeat",
           ("tests/test_keygraph.py::test_repeat_with_balanced_degrees_names_the_edge",)),
    Mutant("families-never-meet", "keygraph.py", "if x1 < u2 and", "if False and x1 < u2 and",
           ("tests/test_keygraph.py::test_repeat_with_balanced_degrees_names_the_edge",
            "tests/test_keygraph.py::test_families_meet_iff_they_share_an_edge")),
    Mutant("families-meet-when-touching", "keygraph.py", "x1 < u2 and u1 < x2", "x1 <= u2 and u1 <= x2",
           ("tests/test_keygraph.py::test_families_meet_iff_they_share_an_edge",)),
    Mutant("shared-edge-off-the-meet", "keygraph.py", "max(x1, u1) * side + max(y1, v1)", "x1 * side + y1",
           ("tests/test_keygraph.py::test_families_meet_iff_they_share_an_edge",)),
    Mutant("core-moved-onto-core-0", "keygraph.py", "Subboard(2 * p, p + q, p + q, 2 * q),",
           "Subboard(2 * p, p + q, p, q),", (KEY,)),
    Mutant("rhombus-family-of-upper-ends", "keygraph.py", "low = core if a < b else to", "low = core",
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
    # the symmetric splice's check on the raw cycle labels: dropped, or made
    # after the mirror joins, which hide a key of two mirror halves
    Mutant("disconnected-key-accepted", "splice.py", "if not is_connected_edges(labels, links):", "if False:",
           ("tests/test_splice.py::test_disconnected_key_graph_fails_loudly",)),
    Mutant("connectivity-checked-after-the-mirror-join", "splice.py",
           "if not is_connected_edges(labels, links):",
           "if not is_connected_edges(labels, links + [(c, last - c) for c in labels]):",
           ("tests/test_splice.py::test_a_key_of_two_mirror_halves_fails_the_symmetric_check",)),
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
    Mutant("fold-projection-count-accepted", "fold.py", "if pa < 0 or pb < 0:", "if False:",
           ("tests/test_cli.py::test_construction_error_is_one_error_line[fold]",)),
    # build_folding's core intersections: the id step of their between-floor
    # edges off by one vertex, a row too many, and their cells left unmarked
    Mutant("fold-intersection-step-off", "fold.py", "f.y1 - b.y1) + 1  # the", "f.y1 - b.y1) + 3  # the",
           (FOLD_ORACLE, "tests/test_fold.py::test_folding_ids_equal_the_projection_table_oracle")),
    Mutant("fold-intersection-row-long", "fold.py", "min(f.y2, b.y2) - max(f.y1, b.y1)",
           "min(f.y2, b.y2) + 1 - max(f.y1, b.y1)", (FOLD_ORACLE,)),
    Mutant("fold-intersection-cells-unmarked", "fold.py",
           "            table[x * side + y1:x * side + y1 + height] = repeat(-3, height)\n", "",
           ("tests/test_fold.py::test_outer_path_ending_on_a_core_intersection_names_the_cell",)),
    Mutant("halving-degree-accepted", "keygraph.py", "if arrays is None:", "if False:",
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
    # parse_structured's shape check, which decides whether the whole-text
    # passes may read the text: skipped, or loosened to text that the line
    # reader refuses
    Mutant("shape-check-skipped", "render.py", "if _SHAPE.fullmatch(text):", "if True:",
           (PARSE_EDITS + "[three tokens]",)),
    Mutant("header-shape-takes-three-fields", "render.py", r'-?[0-9]+ -?[0-9]+ -?[0-9]+ -?[0-9]+\n',
           r'-?[0-9]+ -?[0-9]+ -?[0-9]+(?: -?[0-9]+)?\n',
           ("tests/test_cli.py::test_unreadable_tour_file_is_one_usage_error_line[bad header line]",)),
    Mutant("body-line-ends-in-any-space", "render.py", r'(?:[0-9]+ [0-9]+\n)*"', r'(?:[0-9]+ [0-9]+\s)*"',
           (PARSE_EDITS + "[lines joined by a space]",)),
    Mutant("body-line-end-optional", "render.py", r'(?:[0-9]+ [0-9]+\n)*"', r'(?:[0-9]+ [0-9]+\n?)*"',
           (PARSE_EDITS + "[lines run together]",)),
    # the independent validator's checks, and is_free; an @example of the
    # oracle property kills each row whose killer is that property, on
    # every run, whatever examples hypothesis draws
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
    # verify_central_symmetry's early exit for a list whose second half is
    # its reflected first half: taken without the compare, on the halves' first
    # cells only, or never, which sends every generated tour down the key path
    Mutant("half-turn-exit-uncompared", "verify.py",
           "        if [(right - x, top - y) for x, y in cells[:half]] == list(cells[half:]):\n",
           "        if True:\n", (SYMMETRY_ORACLE,)),
    Mutant("half-turn-exit-first-cells", "verify.py", "for x, y in cells[:half]] == list(cells[half:]):",
           "for x, y in cells[:1]] == list(cells[half:half + 1]):", (SYMMETRY_ORACLE,)),
    Mutant("half-turn-exit-disabled", "verify.py",
           "if n % 2 == 0 and cells[half] == (right - cells[0][0], top - cells[0][1]):", "if False:",
           ("tests/test_complexity.py::test_central_symmetry_of_a_generated_tour_reflects_half_of_it_and_builds_no_key",)),
    Mutant("is-free-by-parity", "geom.py", "return math.gcd(b - a, b + a) == 1", "return (b - a) % 2 == 1",
           ("tests/test_verify.py::test_is_free",)),
    # the one disjoint-set engine: a union that links y, not its root; a
    # connectivity test one merge short; a component count one too many; and
    # a failure that looks for the first id apart from itself, not from id 0
    Mutant("union-links-y-not-its-root", "keygraph.py", "        while parent[y] != y:\n", "        while False:\n",
           ("tests/test_splice.py::test_cycle_tracker_finds_the_networkx_components", CONNECTIVITY, PLAIN)),
    Mutant("connected-one-merge-short", "keygraph.py", "tracker.join(edges) >= len(tracker.parent) - 1",
           "tracker.join(edges) >= len(tracker.parent) - 2",
           (CONNECTIVITY, "tests/test_splice.py::test_disconnected_key_graph_fails_loudly",
            "tests/test_splice.py::test_a_key_of_two_mirror_halves_fails_the_symmetric_check")),
    Mutant("fold-component-count-off-by-one", "fold.py", "len(tracker.parent) - tracker.join(graph.ids)",
           "len(tracker.parent) + 1 - tracker.join(graph.ids)",
           (FOLD_DISCONNECTED, "tests/test_fold.py::test_fold_connectivity_and_its_located_failure_are_the_networkx_ones")),
    Mutant("first-apart-from-itself", "keygraph.py", "if self.find(i) != self.find(0))", "if self.find(i) != self.find(i))",
           (FOLD_DISCONNECTED,
            "tests/test_cli.py::test_construction_error_is_one_error_line[disconnected-symmetric]")),
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


def _name(node):
    """The last name of a dotted expression: ConstructionError for keygraph.ConstructionError."""
    return ast.unparse(node).split(".")[-1]


def _skips(mutant):
    """Whether the row skips what its old text starts on: it makes an if
    header `if False:`, or it takes a raise out."""
    return mutant.new.strip().startswith("if False:") or mutant.old.count("raise") > mutant.new.count("raise")


def test_every_construction_raise_has_a_mutant_row():
    # each raise of ConstructionError, of a class derived from it, or of
    # degree_error is covered by a row that skips it: one whose old text
    # starts on the raise's lines and takes the raise out, or starts on the
    # header of the nearest if whose body holds the raise and makes it
    # `if False:`; a row that only changes the condition does not count
    trees = {path.name: ast.parse(path.read_text()) for path in (ROOT / "src" / "leapertour").glob("*.py")}
    classes = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    family = {"ConstructionError", "degree_error"}
    while derived := {c.name for c in classes if any(_name(b) in family for b in c.bases)} - family:
        family |= derived
    raises = 0
    for name, tree in sorted(trees.items()):
        text = (ROOT / "src" / "leapertour" / name).read_text()
        starts = {
            text[:text.find(m.old)].count("\n") + 1
            for m in MUTANTS
            if m.file == name and m.old in text and _skips(m)
        }
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and _name(node.exc.func) in family):
                continue
            raises += 1
            lines = set(range(node.lineno, node.end_lineno + 1))
            child, guard = node, parents.get(node)
            while guard is not None and not (isinstance(guard, ast.If) and child in guard.body):
                child, guard = guard, parents.get(guard)
            if guard is not None:
                lines |= set(range(guard.lineno, guard.test.end_lineno + 1))
            assert starts & lines, f"{name}:{node.lineno}: no mutant row skips this raise"
    assert raises >= 20, raises


@pytest.mark.slow
def test_killers_pass_on_the_blind_unmutated_copy(tmp_path):
    # so each kill above comes from its mutant, not from the blind symmetry test
    killers = sorted({k for m in MUTANTS if m.blind for k in m.killers})
    result = _run(tmp_path, [BLIND], killers)
    assert result.returncode == 0, f"exit {result.returncode}\n{result.stdout[-3000:]}\n{result.stderr[-3000:]}"
