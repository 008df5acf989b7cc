"""Asymptotic guards from operation counts, not wall time.

Each test runs a stage on a ladder of sizes, counts one operation through
a monkeypatched wrapper, and asserts the count, or the count per unit of
size, on every rung: a stage whose work should not grow with the board, or
should grow linearly, then fails here before it shows on a benchmark.
"""

import leapertour.fold as fold
import leapertour.keygraph as keygraph
import leapertour.splice as splice
import leapertour.tile as tile
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


def test_splices_make_a_bounded_number_of_finds_per_rhombus(monkeypatch):
    # the plain splice unions the two matching edges of each rhombus; the
    # symmetric one joins each cycle to its mirror image and then tests each
    # partner pair once: 1.10, 1.05 and 1.03 finds per rhombus when its
    # bounds were set at twice those
    calls = []
    real = splice.CycleTracker.find

    def counting(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(splice.CycleTracker, "find", counting)
    plain, symmetric = [], []
    for q in (20, 40, 80):
        key = keygraph.build_key(Leaper(1, q))
        rhombi = len(key.rhombus_ids)
        calls.clear()
        splice.splice(key, [0] * rhombi)
        plain.append(len(calls) / rhombi)
        calls.clear()
        splice.symmetric_splice(key)
        symmetric.append(len(calls) / rhombi)
    assert plain == [2.0, 2.0, 2.0]
    assert all(s <= bound for s, bound in zip(symmetric, (2.2, 2.1, 2.06))), symmetric


def test_fold_searches_only_the_fold_vertices(monkeypatch):
    # is_connected searches the 2(q-p)**2 vertices of the folding graph once,
    # and outer_paths walks each path instead of searching the whole board:
    # 722, 3,042 and 12,482 ids, where the board has 1,764, 6,724 and 26,244
    visits = []
    real = fold.components

    def counting(adj):
        found = real(adj)
        visits.append(sum(map(len, found)))
        return found

    monkeypatch.setattr(fold, "components", counting)
    counts = []
    for q in (20, 40, 80):
        key = keygraph.build_key(Leaper(1, q))
        visits.clear()
        fold.check_fold(key)
        counts.append(list(visits))
    assert counts == [[2 * (q - 1) ** 2] for q in (20, 40, 80)]


def test_tile_searches_each_seam_type_once_and_partitions_once(monkeypatch):
    # the four seam types' searches are buffered and shifted, so the
    # candidates yielded per switch fall as the grid grows: 1.0, 0.27 and
    # 0.063 (3, 4 and 4 candidates) when its bounds were set at twice those;
    # the switches flip the copies' arrays in place, and one walk of the
    # whole board from cell 0 proves it a single cycle, with no partition,
    # degree proof or search
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
        raise AssertionError("tile partitioned or searched the board")

    leaper = Leaper(2, 5)
    key = keygraph.build_key(leaper)
    base = splice.splice(key, [0] * len(key.rhombus_ids))
    monkeypatch.setattr(tile, "switch_candidates", counting_candidates)
    monkeypatch.setattr(keygraph, "walk", counting_walk)
    for module in (keygraph, tile):
        monkeypatch.setattr(module, "cycle_partition", forbidden)
    for name in ("neighbour_arrays", "id_adjacency", "components"):
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
    # neighbour lists; each splice walks them twice, once in its one
    # cycle_partition, for the halving's cycle labels, and once from cell 0
    # after the flips in place, and its one search is the connectivity check
    # over one id per halving cycle: 2 * 1,764, 2 * 6,724 and 2 * 26,244 ids
    # walked
    walked, searched, lists, partitions = [], [], [], []
    real_walk, real_components, real_lists = keygraph.walk, keygraph.components, keygraph.id_adjacency

    def counting_walk(*args):
        cycle = real_walk(*args)
        walked.append(len(cycle))
        return cycle

    def counting_components(adj):
        found = real_components(adj)
        searched.append(sum(map(len, found)))
        return found

    def counting_lists(edges, n):
        lists.append(n)
        return real_lists(edges, n)

    def counting_partition(*arrays):
        partitions.append(len(arrays[0]))
        return real_partition(*arrays)

    def forbidden(*args):
        raise AssertionError("the splice searched the board")

    # keygraph's walks and searches, and the splice's own, imported by name
    real_partition = splice.cycle_partition
    monkeypatch.setattr(keygraph, "walk", counting_walk)
    monkeypatch.setattr(keygraph, "components", counting_components)
    monkeypatch.setattr(keygraph, "id_adjacency", counting_lists)
    monkeypatch.setattr(splice, "cycle_partition", counting_partition)
    for name in ("components", "id_adjacency", "degree_error"):
        monkeypatch.setattr(splice, name, forbidden)
    for q in (20, 40, 80):
        key = keygraph.build_key(Leaper(1, q))
        board = key.leaper.side ** 2
        zeros = [0] * len(key.rhombus_ids)
        walked.clear()
        two = keygraph.halve(key, zeros)
        assert (sum(walked), searched, lists) == (board, [], [])
        cycles = len(two.cycles)  # a field: reading it runs no search
        assert len(walked) == cycles
        for run in (lambda: splice.splice(key, zeros), lambda: splice.symmetric_splice(key)):
            walked.clear()
            run()
            assert sum(walked) == 2 * board
            assert partitions == [board]
            assert searched == lists == [cycles]
            searched.clear()
            lists.clear()
            partitions.clear()
