"""Asymptotic guards from operation counts, not wall time.

Each test runs a stage on a ladder of sizes, counts one operation through
a monkeypatched wrapper, or the line events of a module's code through
sys.settrace, and asserts the count, or the count per unit of size, on
every rung: a stage whose work should not grow with the board, or
should grow linearly, then fails here before it shows on a benchmark.
"""

import builtins
import gc
import sys
import tracemalloc
from collections import Counter

import leapertour.cli as cli
import leapertour.fold as fold
import leapertour.keygraph as keygraph
import leapertour.render as render
import leapertour.splice as splice
import leapertour.tile as tile
import leapertour.verify as verify
from leapertour.geom import Leaper


def test_build_key_checks_each_pencil_step_once(monkeypatch):
    # 8 rhombus steps and 24 outer pencils, whatever the number of edges:
    # 3,208 edges at (1,20), 51,208 at (1,80)
    calls = []
    real = keygraph._check_move

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(keygraph, "_check_move", counting)
    counts = []
    for q in (20, 40, 80):
        calls.clear()
        keygraph.build_key(Leaper(1, q))
        counts.append(len(calls))
    assert counts == [32, 32, 32]


def _count_trackers(monkeypatch):
    """Record the size of each CycleTracker the package builds, by the name
    each module holds, and of the tracker that each union runs on."""
    built, unions = [], []
    real, real_union = keygraph.CycleTracker, keygraph.CycleTracker.union

    def counting(parent):
        built.append(len(parent))
        return real(parent)

    def counting_union(self, x, y):
        unions.append(len(self.parent))
        return real_union(self, x, y)

    for module in (keygraph, splice, fold):
        monkeypatch.setattr(module, "CycleTracker", counting)
    monkeypatch.setattr(real, "union", counting_union)
    return built, unions


def test_splices_make_a_bounded_number_of_unions_per_rhombus(monkeypatch):
    # on the tracker over the board's ids, the plain splice unions the two
    # matching edges of each rhombus once; the symmetric one joins each
    # cycle to its mirror image and then tests each partner pair once:
    # 0.55, 0.525 and 0.513 unions per rhombus when its bounds were set at
    # twice those.  Only the symmetric splice checks connectivity first, on
    # a tracker over one id per halving cycle, with one union per rhombus
    _, unions = _count_trackers(monkeypatch)
    plain, symmetric = [], []
    for q in (20, 40, 80):
        key = keygraph.build_key(Leaper(1, q))
        rhombi, board = len(key.rhombus_ids), key.leaper.side ** 2
        runs = (
            (lambda: splice.splice(key, [0] * rhombi), plain, 0),
            (lambda: splice.symmetric_splice(key), symmetric, rhombi),
        )
        for run, out, checked in runs:
            unions.clear()
            run()
            assert len(unions) - unions.count(board) == checked
            out.append(unions.count(board) / rhombi)
    assert plain == [1.0, 1.0, 1.0]
    assert all(s <= bound for s, bound in zip(symmetric, (1.1, 1.05, 1.03))), symmetric


def test_fold_searches_only_the_fold_vertices(monkeypatch):
    # is_connected joins one tracker over the 2(q-p)**2 vertices of the
    # folding graph, once, and outer_paths walks each path instead of
    # searching the whole board: 722, 3,042 and 12,482 ids, where the board
    # has 1,764, 6,724 and 26,244
    built, _ = _count_trackers(monkeypatch)
    counts = []
    for q in (20, 40, 80):
        key = keygraph.build_key(Leaper(1, q))
        built.clear()
        fold.check_fold(key)
        counts.append(list(built))
    assert counts == [[2 * (q - 1) ** 2] for q in (20, 40, 80)]


def test_tile_searches_each_seam_type_once_and_partitions_once(monkeypatch):
    # the four seam types' searches are buffered and shifted, so the
    # candidates yielded per switch fall as the grid grows: 1.0, 0.27 and
    # 0.063 (3, 4 and 4 candidates) when its bounds were set at twice those;
    # the switches flip the copies' arrays in place, and one walk of the
    # whole board from cell 0 proves it a single cycle, with no partition,
    # degree proof or tracker
    yielded, walked = [], []
    real_candidates, real_walk = tile.switch_candidates, keygraph.walk

    def counting_candidates(*args):
        for sw in real_candidates(*args):
            yielded.append(sw)
            yield sw

    def counting_walk(*args):
        cycle = real_walk(*args)
        walked.append(len(cycle))
        return cycle

    def forbidden(*args):
        raise AssertionError("tile partitioned or joined the board")

    leaper = Leaper(2, 5)
    key = keygraph.build_key(leaper)
    base = splice.splice(key, [0] * len(key.rhombus_ids))
    monkeypatch.setattr(tile, "switch_candidates", counting_candidates)
    monkeypatch.setattr(keygraph, "walk", counting_walk)
    for module in (keygraph, tile):
        monkeypatch.setattr(module, "cycle_partition", forbidden)
    for name in ("neighbour_arrays", "CycleTracker"):
        monkeypatch.setattr(keygraph, name, forbidden)
    per_switch = []
    for n in (2, 4, 8):
        yielded.clear()
        walked.clear()
        tile.tile(leaper, n, n, base)
        per_switch.append(len(yielded) / (n * n - 1))
        assert walked == [n * n * leaper.side ** 2]
    assert all(c <= bound for c, bound in zip(per_switch, (2.0, 0.54, 0.13))), per_switch


def test_halve_and_the_splices_search_the_board_a_fixed_number_of_times(monkeypatch):
    # halve's one cycle_partition walks the halving's ids once and builds no
    # tracker; each splice walks them twice, once in its one cycle_partition,
    # for the halving's cycle labels, and once from cell 0 after the flips in
    # place.  It builds the merges' tracker over the labels of all 1,764,
    # 6,724 and 26,244 ids, and the symmetric splice then builds its
    # connectivity check's, over one id per halving cycle
    walked, partitions = [], []
    built, _ = _count_trackers(monkeypatch)
    real_walk, real_partition = keygraph.walk, splice.cycle_partition

    def counting_walk(*args):
        cycle = real_walk(*args)
        walked.append(len(cycle))
        return cycle

    def counting_partition(*arrays):
        partitions.append(len(arrays[0]))
        return real_partition(*arrays)

    def forbidden(*args):
        raise AssertionError("halve or the splice counted degrees")

    # keygraph's walks, the splice's own partition, imported by name, and
    # the degree count that halving_arrays makes only for a failure
    monkeypatch.setattr(keygraph, "walk", counting_walk)
    monkeypatch.setattr(splice, "cycle_partition", counting_partition)
    monkeypatch.setattr(keygraph, "degree_error", forbidden)
    for q in (20, 40, 80):
        key = keygraph.build_key(Leaper(1, q))
        board = key.leaper.side ** 2
        zeros = [0] * len(key.rhombus_ids)
        walked.clear()
        built.clear()
        two = keygraph.halve(key, zeros)
        assert (sum(walked), built) == (board, [])
        cycles = len(two.cycles)  # a field: reading it runs no search
        assert len(walked) == cycles
        runs = ((lambda: splice.splice(key, zeros), [board]), (lambda: splice.symmetric_splice(key), [board, cycles]))
        for run, trackers in runs:
            walked.clear()
            run()
            assert sum(walked) == 2 * board
            assert partitions == [board]
            assert built == trackers
            built.clear()
            partitions.clear()


def test_tile_searches_the_two_seam_strips_not_whole_copies(monkeypatch):
    # switch_candidates gets the lower copy's and the upper copy's q-wide
    # strips along each seam, and translate_edges the upper strip only: at
    # most 36 of (2,5)'s 196 edges per copy and 727 of (1,20)'s 1,764 when
    # its bounds were set at twice those.  A strip holds at most q * side
    # tour edges: each of its q * side cells ends two of them
    sizes = []
    real_candidates, real_translate = tile.switch_candidates, tile.translate_edges

    def counting_candidates(edges_a, edges_b, leaper):
        sizes.extend((len(edges_a), len(edges_b)))
        return real_candidates(edges_a, edges_b, leaper)

    def counting_translate(edges, dx, dy):
        edges = list(edges)
        sizes.append(len(edges))
        return real_translate(edges, dx, dy)

    monkeypatch.setattr(tile, "switch_candidates", counting_candidates)
    monkeypatch.setattr(tile, "translate_edges", counting_translate)
    for (p, q), grids, bound in (
        ((2, 5), ((2, 2), (4, 4), (8, 8), (4, 1), (1, 4)), 72),  # one-axis grids meet two of the four seam kinds
        ((1, 20), ((2, 2),), 1454),
    ):
        leaper = Leaper(p, q)
        key = keygraph.build_key(leaper)
        base = splice.splice(key, [0] * len(key.rhombus_ids))
        for k, l in grids:
            sizes.clear()
            tile.tile(leaper, k, l, base)
            assert sizes and max(sizes) <= min(bound, q * leaper.side), (p, q, k, l, sizes)


def test_tile_builds_no_switch_or_edge_per_seam(monkeypatch):
    # each seam type's switches are built once, as cells, and mapped to ids;
    # a seam adds its copy's offset and tests the neighbour arrays, so the
    # Switch objects and tile.edge calls (strips cut and translated) are
    # the same on every grid: 8 and 417 now, 8 and 279 when this guard was
    # set and only the turned strips called it, where shifting cell switches
    # and a used set of cell edges made 23, 71 and 263 switches and 399, 783
    # and 2,319 edge calls at 4x4, 8x8 and 16x16
    built, edges = [], []
    real_switch, real_edge = tile.Switch, tile.edge

    def counting_switch(*cells):
        built.append(cells)
        return real_switch(*cells)

    def counting_edge(a, b):
        edges.append(a)
        return real_edge(a, b)

    leaper = Leaper(2, 5)
    key = keygraph.build_key(leaper)
    base = splice.splice(key, [0] * len(key.rhombus_ids))
    monkeypatch.setattr(tile, "Switch", counting_switch)
    monkeypatch.setattr(tile, "edge", counting_edge)
    counts = []
    for n in (4, 8, 16):
        built.clear()
        edges.clear()
        tile.tile(leaper, n, n, base)
        counts.append((len(built), len(edges)))
    assert counts[0] == counts[1] == counts[2], counts


def _line_events(module, run):
    """Per function name, the line events that run executes in the module's
    own code, and the calls into it: a Python loop shows as one or more
    events per turn, and a comprehension as calls of its own code."""
    lines, calls = Counter(), Counter()

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_name] += 1
        return local

    def calling(frame, event, arg):
        if frame.f_code.co_filename != module.__file__:
            return None
        calls[frame.f_code.co_name] += 1
        return local

    previous = sys.gettrace()
    sys.settrace(calling)
    try:
        run()
    finally:
        sys.settrace(previous)
    return lines, calls


def test_build_key_makes_no_per_edge_loop():
    # the degrees are proved on one difference array, filled per column of a
    # core and of each outer family's lower and upper ends, and checked by
    # any(): 72, 68 and 66 line events per unit of side when its bound was set at
    # twice the largest, and 71, 58 and 51 since the array is the cover's,
    # against 3,208, 12,808 and 51,208 edges; a loop over the edges,
    # comprehensions included, adds one or more events per edge, 76 to 316
    # per unit of side
    per_side = []
    for q in (20, 40, 80):
        leaper = Leaper(1, q)
        lines, _ = _line_events(keygraph, lambda: keygraph.build_key(leaper))
        per_side.append(sum(lines.values()) / leaper.side)
    assert all(n <= 144 for n in per_side), per_side


def test_verify_tour_checks_a_valid_tour_without_a_per_cell_loop():
    # each check is one set or min/max operation over the keys: verify_tour's
    # own frame runs 22 lines on every rung when its bound was set at twice
    # that, and its only per-cell work is the two comprehensions that encode
    # the cells as keys (C-level maps measured slower); the loops that name
    # a failure run only after a check has failed
    for q in (20, 40, 80):
        leaper = Leaper(1, q)
        key = keygraph.build_key(leaper)
        cells = splice.splice(key, [0] * len(key.rhombus_ids)).cells
        lines, calls = _line_events(verify, lambda: verify.verify_tour(cells, 1, q, leaper.side, leaper.side))
        assert lines["verify_tour"] <= 44, lines
        assert calls["<listcomp>"] == 2 and "<genexpr>" not in calls, calls


def test_central_symmetry_of_a_generated_tour_reflects_half_of_it_and_builds_no_key():
    # a symmetric tour, turned, restarted or reversed as perfbench's check
    # workload hands it to verify, has its mirror image half a turn on, so
    # the function's own frame runs the same 6 lines on every rung when its
    # bound was set at twice that, and its one comprehension reflects the
    # first half; a plain tour takes the key path, whose y and key
    # comprehensions run, and here a third that reflects the keys, as the
    # mirror image of each plain tour's first step is a step of it
    counts = []
    for q in (20, 40, 80):
        leaper = Leaper(1, q)
        side = leaper.side
        key = keygraph.build_key(leaper)
        cells = list(splice.symmetric_splice(key).cells)
        turned = [(side - 1 - y, x) for x, y in cells]
        restarted = cells[q:] + cells[:q]
        copies = (cells, turned, restarted, cells[::-1], (turned[q:] + turned[:q])[::-1])
        for tour in copies:
            lines, calls = _line_events(verify, lambda: verify.verify_central_symmetry(tour, side, side))
            assert calls["<listcomp>"] == 1, (q, calls)
            counts.append(lines["verify_central_symmetry"])
        plain = splice.splice(key, splice.random_bits(len(key.rhombus_ids), 7)).cells
        lines, calls = _line_events(verify, lambda: verify.verify_central_symmetry(plain, side, side))
        assert lines["verify_central_symmetry"] > 12 and calls["<listcomp>"] == 3, (q, lines, calls)
    assert len(set(counts)) == 1 and counts[0] <= 12, counts


def test_parse_structured_reads_a_generated_file_without_a_per_line_loop():
    # text in format_structured's shape is read in whole-text passes: one
    # fullmatch, one split, and one int() per distinct token, in the memo's
    # __missing__, so parse_structured's own frame runs the same 4 lines on
    # every rung, and the board's coordinates and the header's side are the
    # only ints made; the per-line reader runs 4 lines per cell
    for q in (20, 40, 80):
        leaper = Leaper(1, q)
        key = keygraph.build_key(leaper)
        cells = splice.splice(key, [0] * len(key.rhombus_ids)).cells
        text = render.format_structured(cells, 1, q, leaper.side, leaper.side)
        lines, calls = _line_events(render, lambda: render.parse_structured(text))
        assert lines["parse_structured"] == 4, lines
        assert calls["__missing__"] == leaper.side + 1, calls  # 0 to side - 1, and the side


def test_generate_starts_no_garbage_collection(tmp_path):
    # cli.main pauses the cyclic collector for the command, whose objects
    # form no reference cycle: with the collector on throughout, the plain
    # tours of (1,20), (1,40) and (1,80) started 7-8, 46 and 210 collections
    # and the (2,5) 3x4 tiling 6, and none of them freed an object
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    runs = [("--p", "1", "--q", str(q), "--seed", "7") for q in (20, 40, 80)]
    runs.append(("--p", "2", "--q", "5", "--seed", "3", "--tile-k", "3", "--tile-l", "4", "--format", "grid"))
    cli.build_parser()
    counts = []
    gc.callbacks.append(hook)
    try:
        for extra in runs:
            gc.collect()
            started.clear()
            assert cli.main(["generate", *extra, "--output", str(tmp_path / "tour.txt")]) == 0
            counts.append(len(started))
    finally:
        gc.callbacks.remove(hook)
    assert counts == [0, 0, 0, 0], counts


def test_build_key_builds_no_edge_container_on_its_valid_path(monkeypatch):
    # build_key proves its edges distinct on 32 pencil families, so a valid
    # key hashes no edge into a set or Counter, and the memory it takes for
    # a while, beyond the key it returns, stays flat per cell: 108, 121 and
    # 127 bytes at (1,20), (1,40) and (1,80) when this guard was set, where
    # listing and hashing every rhombus edge and uniting them with the outer
    # edges took 186, 266 and 301; 16 at each since the degrees are proved
    # on one side**2-long difference array, where one more side**2-long list
    # of counts, as the per-cell degree and membership arrays were, took 29
    made = []
    for name in ("set", "frozenset", "Counter"):
        real = getattr(keygraph, name, None) or getattr(builtins, name)

        def counting(*args, real=real, name=name):
            made.append(name)
            return real(*args)

        monkeypatch.setattr(keygraph, name, counting, raising=False)
    per_cell = []
    for q in (20, 40, 80):
        leaper = Leaper(1, q)
        keygraph.build_key(leaper)  # warm the allocator's free lists
        tracemalloc.start()
        key = keygraph.build_key(leaper)
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        per_cell.append((peak - kept) / leaper.side ** 2)
        del key
    assert made == []
    assert all(n <= 24 for n in per_cell), per_cell
