import dataclasses
import random
import re
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leapertour.keygraph as keygraph
import leapertour.splice as splice_module
from leapertour.cli import free_leapers
from leapertour.geom import Leaper, PencilSpec, Subboard, edge
from leapertour.keygraph import (
    ConstructionError,
    Cores,
    build_key,
    halve,
    halving_ids,
)
from leapertour.splice import (
    Tour,
    _check_mirrored_bits,
    _find_center_rhombus,
    _merge_flip,
    _partners,
    _rhombus_cells,
    _tracked_halving,
    canonicalize,
    random_bits,
    splice,
    symmetric_halving_bits,
    symmetric_splice,
)
from leapertour.tile import tile
from leapertour.verify import verify_central_symmetry, verify_tour
from oracles import cycle_partition as oracle_partition
from oracles import id_cycle_partition, id_pair, matching_ids, merge_flip, mirror_partners
from oracles import rhombus_matching, tracked_halving
from oracles import splice as generic_splice
from oracles import symmetric_splice as growth_symmetric_splice


@pytest.fixture(scope="module")
def key25():
    return build_key(Leaper(2, 5))


def halving_edges(key, bits):
    """The halving's edges as cells."""
    side = key.leaper.side
    return {edge(divmod(a, side), divmod(b, side)) for a, b in halving_ids(key, bits)}


def mirror(cell, side):
    """The central reflection of a cell."""
    return (side - 1 - cell[0], side - 1 - cell[1])


# Edge-set helpers of the splices before they flipped bits; the oracles
# below and the check of a finished tour's edge set use them.
def current_matching(edges, r):
    """Which of the rhombus's two matchings the edge set contains."""
    in0 = [e in edges for e in rhombus_matching(r, 0)]
    in1 = [e in edges for e in rhombus_matching(r, 1)]
    if all(in0) and not any(in1):
        return 0
    if all(in1) and not any(in0):
        return 1
    raise ConstructionError(f"edge set holds a non-matching subset of rhombus {r.cells}")


def _flip_edges(edges, r):
    bit = current_matching(edges, r)
    edges.difference_update(rhombus_matching(r, bit))
    edges.update(rhombus_matching(r, 1 - bit))


def test_flip_is_involution(key25):
    zeros = [0] * len(key25.rhombi)
    once = zeros.copy()
    once[0] ^= 1
    twice = once.copy()
    twice[0] ^= 1
    assert halving_edges(key25, once) != halving_edges(key25, zeros)
    assert halving_edges(key25, twice) == halving_edges(key25, zeros)


def test_flip_changes_exactly_four_edges(key25):
    zeros = [0] * len(key25.rhombi)
    flipped = zeros.copy()
    flipped[5] ^= 1
    changed = halving_edges(key25, zeros) ^ halving_edges(key25, flipped)
    assert changed == set(key25.rhombi[5].edges())


def test_flip_merges_cycles_when_edges_on_different_cycles(key25):
    zeros = [0] * len(key25.rhombi)
    before = len(oracle_partition(halving_edges(key25, zeros)))
    for i in range(len(key25.rhombi)):
        halving, tracker = _tracked_halving(key25, zeros)
        bits = list(zeros)
        if _merge_flip(key25, halving, bits, tracker, i):
            assert len(oracle_partition(halving_edges(key25, bits))) == before - 1
            # the arrays were flipped in place to the new bits' halving
            side = key25.leaper.side
            rebuilt = keygraph.neighbour_arrays(halving_ids(key25, bits), side * side)
            assert list(map(sorted, zip(*halving))) == list(map(sorted, zip(*rebuilt)))
            # both matching edges now lie on one cycle, so it stays put
            assert not _merge_flip(key25, halving, bits, tracker, i) and bits[i] == 1
            break
    else:
        pytest.skip("all-zero halving produced a single cycle")


def test_splice_knight_all_zero():
    key = build_key(Leaper(1, 2))
    tour = splice(key, [0] * len(key.rhombi))
    assert verify_tour(tour.cells, 1, 2, 6, 6).valid


def test_splice_2_5_random_halvings(key25):
    for seed in range(10):
        bits = random_bits(len(key25.rhombi), seed)
        tour = splice(key25, bits)
        assert verify_tour(tour.cells, 2, 5, 14, 14).valid
        assert key25.outer_edges <= tour.edge_set()


@pytest.mark.parametrize("extra", [-1, 1])
def test_splice_rejects_wrong_bit_count(key25, extra):
    with pytest.raises(ValueError, match="bits"):
        splice(key25, [0] * (len(key25.rhombi) + extra))


def test_splice_preserves_outer_edges(key25):
    tour = splice(key25, [0] * len(key25.rhombi))
    assert key25.outer_edges <= tour.edge_set()


def test_splice_stabilization_property(key25):
    # after splicing, both matching edges of every rhombus lie on the one cycle
    tour = splice(key25, [1] * len(key25.rhombi))
    edges = tour.edge_set()
    for r in key25.rhombi:
        current_matching(edges, r)  # raises unless exactly one matching present


@pytest.mark.parametrize(
    "p,q",
    [
        pytest.param(p, q, id=f"{p}-{q}", marks=[pytest.mark.slow] if p + q > 15 else [])
        for p, q in free_leapers(41)
    ],
)
def test_symmetric_halving_is_symmetric(p, q):
    key = build_key(Leaper(p, q))
    side = key.leaper.side
    two = halve(key, symmetric_halving_bits(key, _partners(key)))
    mirrored = {tuple(sorted((mirror(a, side), mirror(b, side)))) for a, b in two.edges}
    assert mirrored == {tuple(e) for e in two.edges}


@pytest.mark.parametrize("p,q", [(1, 2), (2, 5), (2, 7), (3, 4), (4, 5)])
def test_symmetric_splice(p, q):
    key = build_key(Leaper(p, q))
    tour = symmetric_splice(key)
    side = 2 * (p + q)
    report = verify_tour(tour.cells, p, q, side, side)
    assert report.valid
    assert verify_central_symmetry(tour.cells, side, side)
    assert key.outer_edges <= tour.edge_set()


def test_center_rhombus_base_closed_form():
    for p, q in [(1, 2), (2, 5), (3, 4), (2, 7)]:
        key = build_key(Leaper(p, q))
        r1 = key.rhombi[_find_center_rhombus(key)]
        assert r1.cells[0] == ((p + q - 1) // 2, (p + q - 1) // 2)


def test_canonicalize_idempotent(key25):
    tour = splice(key25, [0] * len(key25.rhombi))
    c = canonicalize(tour)
    assert canonicalize(c) == c


def test_canonicalize_agrees_on_reversal(key25):
    tour = canonicalize(splice(key25, [0] * len(key25.rhombi)))
    reversed_tour = Tour(cells=tuple(reversed(tour.cells)))
    assert canonicalize(reversed_tour) == tour


def test_determinism_same_seed(key25):
    bits = random_bits(len(key25.rhombi), 42)
    a = canonicalize(splice(key25, bits))
    b = canonicalize(splice(key25, random_bits(len(key25.rhombi), 42)))
    assert a == b


def _oracle_symmetric_splice(key, triple_flips=None):
    """The symmetric growth loop as it was before the shared merge-flip
    engine: it re-partitions the whole board into cycles at every step.
    Each triple flip appends its pending rhombus's index to triple_flips."""
    side = key.leaper.side
    partners = mirror_partners(key)
    edges = halving_edges(key, symmetric_halving_bits(key, partners))

    def cycle_cells_through(cell):
        return next(frozenset(cyc) for cyc in oracle_partition(edges) if cell in cyc)

    r1 = key.rhombi[next(i for i, j in enumerate(partners) if i == j)]
    anchor = r1.cells[0]
    e1, e2 = rhombus_matching(r1, current_matching(edges, r1))
    if e2[0] not in cycle_cells_through(e1[0]):
        _flip_edges(edges, r1)
    grown = cycle_cells_through(anchor)
    while True:
        straddling = None
        for i, r in enumerate(key.rhombi):
            m1, m2 = rhombus_matching(r, current_matching(edges, r))
            if (m1[0] in grown) != (m2[0] in grown):
                straddling = i
                break
        if straddling is None:
            break
        pending, rstar = key.rhombi[straddling], key.rhombi[partners[straddling]]
        out_edge = next(
            e
            for e in rhombus_matching(pending, current_matching(edges, pending))
            if e[0] not in grown
        )
        # the mirrored edge's smaller end: the reflection reverses cell order
        if mirror(out_edge[1], side) in cycle_cells_through(out_edge[0]):
            _flip_edges(edges, r1)
            if triple_flips is not None:
                triple_flips.append(straddling)
        _flip_edges(edges, pending)
        _flip_edges(edges, rstar)
        new_grown = cycle_cells_through(anchor)
        assert len(new_grown) > len(grown)
        grown = new_grown
    cycles = oracle_partition(edges)
    assert len(cycles) == 1 and len(cycles[0]) == side * side
    return Tour(cells=cycles[0])


def _oracle_splice(key, bits):
    """The plain splice as it was before the shared engine: the tracker
    unions the two new edges of every flip."""
    edges = halving_edges(key, bits)
    tracker = splice_module.CycleTracker({c: c for e in edges for c in e})
    for a, b in edges:
        tracker.union(a, b)
    for r in key.rhombi:
        e1, e2 = rhombus_matching(r, current_matching(edges, r))
        if tracker.find(e1[0]) != tracker.find(e2[0]):
            _flip_edges(edges, r)
            for a, b in rhombus_matching(r, current_matching(edges, r)):
                tracker.union(a, b)
    (cycle,) = oracle_partition(edges)
    return Tour(cells=cycle)


ORACLE_LEAPERS = [
    pytest.param(p, q, id=f"{p}-{q}", marks=[pytest.mark.slow] if p + q > 15 else [])
    for p, q in free_leapers(41)
]


@pytest.mark.parametrize("p,q", ORACLE_LEAPERS)
def test_splices_match_pre_engine_oracle(p, q):
    key = build_key(Leaper(p, q))
    assert symmetric_splice(key) == _oracle_symmetric_splice(key)
    bits = random_bits(len(key.rhombi), 7)
    assert splice(key, bits) == _oracle_splice(key, bits)


@pytest.mark.parametrize("p,q", ORACLE_LEAPERS)
def test_partners_are_the_index_ranges_of_the_mirror_search(p, q):
    # rhombus i's mirror is w**2 - 1 - i in the forward pencil and
    # 3w**2 - 1 - i in the backward one, w = q - p, found by searching
    key = build_key(Leaper(p, q))
    w = q - p
    partners = _partners(key)
    assert partners == mirror_partners(key)
    assert [partners[i] for i in (0, w * w - 1, w * w, 2 * w * w - 1)] == [w * w - 1, 0, 2 * w * w - 1, w * w]


def _paired_random_bits(key, seed):
    """Random halving bits that give each rhombus and its central partner
    the same bit, so the halving is centrally symmetric."""
    rng = random.Random(seed)
    bits = [None] * len(key.rhombi)
    for i, j in enumerate(_partners(key)):
        if bits[i] is None:
            bits[i] = bits[j] = rng.getrandbits(1)
    return bits


@pytest.mark.parametrize(
    "low,high",
    [pytest.param(3, 11, id="to-11"), pytest.param(13, 25, id="13-to-25", marks=pytest.mark.slow)],
)
def test_symmetric_splice_of_random_symmetric_halvings(monkeypatch, low, high):
    # the all-zero halving never needs a triple flip; random symmetric ones do
    triple_flips = []
    for p, q in free_leapers(high):
        if p + q < low:
            continue
        key = build_key(Leaper(p, q))
        side = key.leaper.side
        for seed in range(5):
            bits = _paired_random_bits(key, seed)
            fake = lambda key, partners, bits=bits: list(bits)
            monkeypatch.setattr(splice_module, "symmetric_halving_bits", fake)
            monkeypatch.setattr(sys.modules[__name__], "symmetric_halving_bits", fake)
            tour = symmetric_splice(key)
            assert verify_tour(tour.cells, p, q, side, side).valid, (p, q, seed)
            assert verify_central_symmetry(tour.cells, side, side), (p, q, seed)
            assert tour == _oracle_symmetric_splice(key, triple_flips), (p, q, seed)
    assert len(triple_flips) > 0


@pytest.mark.slow
@pytest.mark.parametrize(
    "p,q", [pytest.param(p, q, id=f"{p}-{q}") for p, q in free_leapers(61) if p + q > 41]
)
def test_symmetric_splice_matches_the_growth_loop_to_61(monkeypatch, p, q):
    key = build_key(Leaper(p, q))
    assert symmetric_splice(key) == growth_symmetric_splice(key)
    bits = _paired_random_bits(key, 0)
    monkeypatch.setattr(splice_module, "symmetric_halving_bits", lambda key, partners: list(bits))
    assert symmetric_splice(key) == growth_symmetric_splice(key, bits)


@pytest.mark.slow
@pytest.mark.parametrize(
    "p,q", [pytest.param(p, q, id=f"{p}-{q}") for p, q in free_leapers(61) if p + q > 41]
)
def test_splice_matches_pre_engine_oracle_to_61(p, q):
    key = build_key(Leaper(p, q))
    bits = random_bits(len(key.rhombus_ids), 7)
    assert splice(key, bits) == _oracle_splice(key, bits)


@pytest.mark.parametrize("p,q", [(2, 5), (6, 13), (12, 25)])
def test_symmetric_splice_partitions_the_board_once(monkeypatch, p, q):
    # the halving's cycles are walked once, for their labels, and the flipped
    # arrays once from cell 0; no degree search builds neighbour lists
    key = build_key(Leaper(p, q))
    labels, final, lists = [], [], []
    real_cycles, real_tour = splice_module.cycle_partition, splice_module.one_cycle

    def counting_cycles(*arrays):
        cycles = real_cycles(*arrays)
        labels.append(sum(map(len, cycles)))
        return cycles

    def counting_tour(*args):
        cells = real_tour(*args)
        final.append(len(cells))
        return cells

    monkeypatch.setattr(splice_module, "cycle_partition", counting_cycles)
    monkeypatch.setattr(splice_module, "one_cycle", counting_tour)
    monkeypatch.setattr(keygraph, "degree_error", lambda *a: lists.append(a))
    symmetric_splice(key)
    assert labels == final == [key.leaper.side ** 2]
    assert lists == []


def test_symmetric_splice_finds_partners_once(monkeypatch, key25):
    calls = []

    def counting_partners(key):
        calls.append(key)
        return _partners(key)

    monkeypatch.setattr(splice_module, "_partners", counting_partners)
    symmetric_splice(key25)
    assert calls == [key25]


def test_mirrored_bits_check_rejects_unpaired_bits(key25):
    partners = _partners(key25)
    bits = _paired_random_bits(key25, 0)
    _check_mirrored_bits(key25, bits, partners)
    i = next(i for i, j in enumerate(partners) if j != i)
    bits[i] ^= 1
    first = min(i, partners[i])
    cells = key25.rhombi[first].cells
    with pytest.raises(ConstructionError, match=rf"^rhombus {re.escape(str(cells))} has bit"):
        _check_mirrored_bits(key25, bits, partners)


@pytest.mark.parametrize("p,q", [(1, 2), (2, 5), (3, 4)])
def test_mirrored_bits_iff_symmetric_halving(p, q):
    key = build_key(Leaper(p, q))
    side, partners = key.leaper.side, _partners(key)
    for seed in range(8):
        paired = _paired_random_bits(key, seed)
        for bits in (paired, random_bits(len(key.rhombi), seed)):
            edges = halving_edges(key, bits)
            symmetric = {edge(mirror(a, side), mirror(b, side)) for a, b in edges} == edges
            try:
                _check_mirrored_bits(key, bits, partners)
                passed = True
            except ConstructionError:
                passed = False
            assert passed == symmetric, (seed, bits)


def _halving_key(key, bits):
    """The key graph that is only the halving the bits pick, as outer edges
    without rhombi: every cell keeps degree 2, and its components are the
    halving's cycles."""
    halving = tuple(id_pair(*e) for e in halving_ids(key, bits))  # as outer edges: smaller id first
    return dataclasses.replace(key, rhombus_ids=(), outer_ids=halving)


def _split_keys(key):
    """Key graphs split in two ways: without the outer graph, and with only
    the all-zero halving's cycles."""
    zeros = [0] * len(key.rhombi)
    assert len(oracle_partition(halving_edges(key, zeros))) > 1
    return [(dataclasses.replace(key, outer_ids=()), zeros), (_halving_key(key, zeros), [])]


def _disconnection_messages(nx, key, bits):
    """The plain and the symmetric splice's messages for a key graph that is
    not connected, from networkx: the plain splice's merge pass leaves one
    cycle per component, and its final walk names their count and the
    smallest cell off cell (0, 0)'s component, the cell that the symmetric
    splice's check on the raw cycle labels names.  A halving with a cell of
    degree other than 2, as without the outer graph, names its first such
    cell in both, before connectivity is checked."""
    graph = nx.Graph(key.edges)
    graph.add_nodes_from(key.cells)
    halving = nx.Graph(halving_edges(key, bits))
    halving.add_nodes_from(key.cells)
    odd = [c for c in sorted(key.cells) if halving.degree(c) != 2]
    if odd:
        return (f"cell {odd[0]} has degree {halving.degree(odd[0])}, expected 2",) * 2
    off = min(set(key.cells) - nx.node_connected_component(graph, (0, 0)))
    return (
        f"splice left {nx.number_connected_components(graph)} cycles, the second from cell {off}",
        f"key graph is not connected: cell {off} is not reached from cell (0, 0)",
    )


@pytest.mark.parametrize("case", [0, 1], ids=["no-outer", "halving-only"])
def test_disconnected_key_graph_fails_loudly(nx, key25, case):
    key, bits = _split_keys(key25)[case]
    plain, symmetric = _disconnection_messages(nx, key, bits)
    with pytest.raises(ConstructionError, match=f"^{re.escape(plain)}$"):
        splice(key, bits)
    with pytest.raises(ConstructionError, match=f"^{re.escape(symmetric)}$"):
        symmetric_splice(key)


@pytest.mark.parametrize("p,q,cell", [(1, 2, (0, 2)), (2, 3, (0, 1)), (3, 4, (0, 2)), (4, 5, (0, 1))])
def test_a_key_of_two_mirror_halves_fails_the_symmetric_check(p, q, cell):
    # the all-zero halving of these leapers is two cycles, each the other's
    # mirror: joined to its mirror before the merge pass, each cycle would
    # pass for the whole key graph, so the symmetric splice checks the raw
    # cycle labels first
    key = build_key(Leaper(p, q))
    zeros = [0] * len(key.rhombus_ids)
    cycles = halve(key, zeros).cycles
    side = key.leaper.side
    assert len(cycles) == 2 and {mirror(c, side) for c in cycles[0]} == set(cycles[1])
    message = f"key graph is not connected: cell {cell} is not reached from cell (0, 0)"
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        symmetric_splice(_halving_key(key, zeros))


@settings(max_examples=25, deadline=None)
@given(pq=st.sampled_from(free_leapers(21)), seed=st.integers(0, 2**32 - 1))
def test_splices_name_the_networkx_disconnection_of_a_halving_key(nx, pq, seed):
    # each key cut down to a halving of its own: the plain splice on the
    # seed's halving, the symmetric splice on the all-zero one, whose bits
    # it takes itself
    key = _key(*pq)
    for bits, run, which in (
        (random_bits(len(key.rhombus_ids), seed), lambda k: splice(k, []), 0),
        ([0] * len(key.rhombus_ids), symmetric_splice, 1),
    ):
        if len(halve(key, bits).cycles) == 1:
            continue  # a halving that is a tour is a connected key
        split = _halving_key(key, bits)
        message = _disconnection_messages(nx, split, [])[which]
        with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
            run(split)


def test_degree_error_names_a_cell(key25):
    # halve's degree count and the splice's cycle partition name the same cell
    key = dataclasses.replace(key25, rhombus_ids=key25.rhombus_ids[1:])
    messages = []
    for run in (splice, halve):
        with pytest.raises(ConstructionError, match=r"^cell \(\d+, \d+\) has degree 1, expected 2$") as error:
            run(key, [0] * len(key.rhombus_ids))
        messages.append(str(error.value))
    assert messages[0] == messages[1]


# A key that build_key returns is centrally symmetric: it proves the
# rhombi's mirrors on their cores, builds each outer pencil's centre and
# horizontal copies as the mirrors of the other two, and the symmetric
# splice reads the partners off the indices.  So the defects below are made
# through build_key, with patched cores, outer pencil or reflection, and
# each check names a cell.


def _patch_forward_cores(monkeypatch, change):
    """Make keygraph.build_cores return the forward cores as change(cores.forward)."""
    real = keygraph.build_cores

    def patched(leaper):
        cores = real(leaper)
        return Cores(tuple(change(cores.forward)), cores.backward)

    monkeypatch.setattr(keygraph, "build_cores", patched)


def _right(core):
    """The core moved one cell right."""
    return Subboard(core.x1 + 1, core.x2 + 1, core.y1, core.y2)


def test_rhombus_without_a_mirror_is_named(monkeypatch, key25):
    # rhombus i is cell i of each core, so a rhombus loses its mirror only
    # with a core that does: forward core k moved one cell right is named by
    # the step into it, at the first cell it left, before the mirror check
    # runs, for each core after core 0
    cores = key25.cores.forward
    for k in (1, 2, 3):
        with monkeypatch.context() as patch:
            _patch_forward_cores(patch, lambda kind: [_right(c) if i == k else c for i, c in enumerate(kind)])
            cell = (cores[k].x1, cores[k].y1)
            message = f"step {k - 1} of the forward rhombi takes core {k - 1} off core {k} at {cell}"
            with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
                build_key(Leaper(2, 5))


def test_key_without_a_centre_rhombus_is_refused(monkeypatch, key25):
    # only an odd core width gives a centre rhombus, (w**2 - 1) / 2 = 4 for
    # w = 3; the forward cores narrowed to w - 1 columns still follow their
    # steps, but core 2 no longer mirrors core 0, and the mirror check names
    # rhombus 0, which keeps its cells
    i1 = _find_center_rhombus(key25)
    assert i1 == 4
    _patch_forward_cores(monkeypatch, lambda kind: [Subboard(c.x1, c.x2 - 1, c.y1, c.y2) for c in kind])
    message = f"rhombus {_rhombus_cells(key25, 0)} has no central mirror"
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        build_key(Leaper(2, 5))
    # a key edited without it holds rhombus 5 at the centre index, which the
    # symmetric splice names as not its own mirror
    key = dataclasses.replace(key25, rhombus_ids=key25.rhombus_ids[:i1] + key25.rhombus_ids[i1 + 1:])
    cells = _rhombus_cells(key25, i1 + 1)
    message = f"rhombus {cells} at the centre index is not its own central mirror"
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        _find_center_rhombus(key)


def test_extra_mirrored_outer_edges_fail_the_degree_check(key25):
    # each leaper move outside the key graph, added with its mirror image,
    # gives four cells degree 3 in every halving; a + b < last picks one
    # edge of each mirrored pair
    leaper, side = key25.leaper, key25.leaper.side
    last = side * side - 1
    extra = {
        (a, b)
        for a in range(last + 1)
        for dx, dy in leaper.directions()
        for b in [a + dx * side + dy]
        if 0 <= a // side + dx < side and 0 <= a % side + dy < side and a < b and a + b < last
    } - set(key25.outer_ids) - {e for pair in matching_ids(key25) for m in pair for e in m}
    assert len(extra) == 100
    for a, b in extra:
        key = dataclasses.replace(key25, outer_ids=key25.outer_ids + ((a, b), (last - b, last - a)))
        with pytest.raises(ConstructionError, match=r"^cell \(\d+, \d+\) has degree 3, expected 2$"):
            symmetric_splice(key)


def test_self_mirrored_edge_error_names_its_cells(monkeypatch):
    # a self-mirror edge (x, y)-(side-1-x, side-1-y) has a vector odd in both
    # coordinates, and no free leaper has such a move, as p + q is odd
    for p, q in free_leapers(41):
        assert all(dx % 2 == 0 or dy % 2 == 0 for dx, dy in Leaper(p, q).directions()), (p, q)
    # so an outer pencil that adds one, the cells (6, 6) and (7, 7) of the
    # 14 x 14 board, is refused as a non-move, named
    real = keygraph._outer_pencils
    monkeypatch.setattr(
        keygraph, "_outer_pencils", lambda leaper: real(leaper) + [PencilSpec(Subboard(6, 7, 6, 7), ((1, 1),))]
    )
    with pytest.raises(ConstructionError, match=r"^illegal move \(6, 6\)-\(7, 7\)$"):
        build_key(Leaper(2, 5))


@pytest.mark.parametrize("p,q", [(1, 4), (2, 5), (3, 8)])
def test_rotated_rhombus_is_named_without_a_mirror(monkeypatch, p, q):
    # a rhombus stored as b, c, d, a is the same 4-cycle, but its matching 0
    # is the other one, so the reflection would no longer map matchings by
    # bit.  Through build_key every forward rhombus rotates with its cores,
    # and step 0 then takes the new core 0 (old core 1) by (q, p) off the
    # new core 1 (old core 2) by (q, p) - (p, q): they miss each other, and
    # the smaller corner of the two is named
    _, c1, c2, _ = build_key(Leaper(p, q)).cores.forward
    _patch_forward_cores(monkeypatch, lambda kind: kind[1:] + kind[:1])
    cell = min((c1.x1 + q, c1.y1 + p), (c2.x1, c2.y1))
    message = f"step 0 of the forward rhombi takes core 0 off core 1 at {cell}"
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        build_key(Leaper(p, q))


@pytest.mark.parametrize("p,q", [(1, 4), (2, 5), (3, 8)])
def test_cores_off_their_mirrors_name_rhombus_0(monkeypatch, p, q):
    # every core moved one cell right: each rhombus step still takes its
    # core onto the next, but core 2 no longer mirrors core 0, and the
    # mirror check names rhombus 0 of the forward pencil, moved too
    cells = tuple((x + 1, y) for x, y in _rhombus_cells(build_key(Leaper(p, q)), 0))
    real = keygraph.build_cores

    def moved(leaper):
        cores = real(leaper)
        return Cores(*(tuple(Subboard(c.x1 + 1, c.x2 + 1, c.y1, c.y2) for c in kind) for kind in (cores.forward, cores.backward)))

    monkeypatch.setattr(keygraph, "build_cores", moved)
    with pytest.raises(ConstructionError, match=f"^rhombus {re.escape(str(cells))} has no central mirror$"):
        build_key(Leaper(p, q))


def test_outer_copies_mirror_by_construction(monkeypatch, key25):
    # build_outer makes the centre and horizontal copies of each pencil as
    # the central mirrors of its identity and vertical copies, so a vertical
    # copy moved up by one cell moves its mirror down with it: the outer
    # graph stays centrally symmetric, and the degree check names the
    # first cell the moved copies leave with the wrong degree
    leaper, last = key25.leaper, key25.leaper.side ** 2 - 1
    real = keygraph.reflect
    calls = []

    def moved(ids, side):
        calls.append(ids)
        return [i + 1 for i in real(ids, side)] if len(calls) == 1 else real(ids, side)

    monkeypatch.setattr(keygraph, "reflect", moved)
    outer, _, _ = keygraph.build_outer(leaper)
    assert len(outer) == 16 * 2 * 5 and set(outer) != set(key25.outer_ids)
    assert {(last - b, last - a) for a, b in outer} == set(outer)
    calls.clear()
    with pytest.raises(ConstructionError, match=r"^degree mismatch at \(0, 8\): membership 0, inner 0, outer 3$"):
        build_key(leaper)


def test_outer_edge_dropped_from_an_edited_key_is_named(key25):
    # an edge dropped from a key that build_key returned leaves its ends
    # degree 1 in every halving, which the symmetric splice's final check names
    for k in (0, len(key25.outer_ids) // 2, len(key25.outer_ids) - 1):
        a, b = key25.outer_ids[k]
        key = dataclasses.replace(key25, outer_ids=key25.outer_ids[:k] + key25.outer_ids[k + 1:])
        with pytest.raises(ConstructionError, match=rf"^cell {re.escape(str(key.cells[a]))} has degree 1, expected 2$"):
            symmetric_splice(key)


def test_bits_made_asymmetric_mid_run_are_named_at_the_end(monkeypatch):
    # after the first pairs, one rhombus flips without its partner: no later
    # flip can undo that, and the final check names the pair
    key = build_key(Leaper(4, 9))
    partners = _partners(key)
    k = next(k for k, j in enumerate(partners) if j != k)
    real, calls = splice_module._merge_flip, []

    def straying(key, halving, bits, tracker, i):
        calls.append(i)
        merged = real(key, halving, bits, tracker, i)
        if len(calls) == 3:  # at the third pair
            splice_module._flip_rhombus(key, halving, bits, k)
        return merged

    monkeypatch.setattr(splice_module, "_merge_flip", straying)
    cells = tuple(key.rhombi[min(k, partners[k])].cells)
    with pytest.raises(ConstructionError, match=rf"^rhombus {re.escape(str(cells))} has bit"):
        symmetric_splice(key)
    assert len(calls) > 3  # the pass went on after the stray flip


def _never_flip(monkeypatch, key):
    monkeypatch.setattr(splice_module, "_merge_flip", lambda *args: False)


def _flip_one_pair_only(monkeypatch, key):
    real, flipped = splice_module._merge_flip, []

    def one_only(*args):
        merged = not flipped and real(*args)
        if merged:
            flipped.append(args[-1])
        return merged

    monkeypatch.setattr(splice_module, "_merge_flip", one_only)


def _triple_flip_forgets_the_centre(monkeypatch, key):
    # paired seed-0 bits put a triple flip on (2,5); the centre rhombus's
    # flip is skipped, in its bit and in the arrays, so the mirrored-bits
    # check passes and the final walk sees it unflipped
    bits = _paired_random_bits(key, 0)
    monkeypatch.setattr(splice_module, "symmetric_halving_bits", lambda key, partners: list(bits))
    centre = _find_center_rhombus(key)
    real = splice_module._flip_rhombus

    def forgetting(key, halving, bits, i):
        if i != centre:
            real(key, halving, bits, i)

    monkeypatch.setattr(splice_module, "_flip_rhombus", forgetting)


# The ids name the growth-loop check each fault reached before the splice
# became one pass over partner pairs; the final walk now catches them all,
# and its failure path names the first cell of the second cycle.
@pytest.mark.parametrize(
    "p,q,inject,cycles,cell",
    [
        (2, 5, _never_flip, 5, (0, 4)),
        (1, 4, _never_flip, 5, (0, 2)),
        (2, 5, _flip_one_pair_only, 3, (0, 4)),
        (2, 5, _triple_flip_forgets_the_centre, 2, (0, 1)),
    ],
    ids=["mirror-2-5", "mirror-1-4", "paired-flip", "triple-flip"],
)
def test_symmetric_splice_failures_name_the_pending_rhombus(monkeypatch, p, q, inject, cycles, cell):
    key = build_key(Leaper(p, q))
    inject(monkeypatch, key)
    message = f"symmetric splice left {cycles} cycles, the second from cell {cell}"
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        symmetric_splice(key)


def test_plain_splice_checks_connectivity_once_and_partitions_only_a_failure(monkeypatch, key25):
    # the splice partitions the halving once, for its cycle labels, and runs
    # no connectivity check of its own: its final walk from cell 0 is the
    # one check, and the flipped arrays are partitioned only when it falls short
    calls = []
    for module, name in (
        (splice_module, "cycle_partition"), (splice_module, "is_connected_edges"), (keygraph, "cycle_partition")
    ):
        real, label = getattr(module, name), f"{module.__name__.split('.')[1]}.{name}"
        monkeypatch.setattr(module, name, lambda *a, real=real, label=label: calls.append(label) or real(*a))
    splice(key25, random_bits(len(key25.rhombi), 3))
    assert calls == ["splice.cycle_partition"]
    # a pass that never merges leaves the all-zero halving's 6 cycles, which
    # the failure path names by walking the flipped arrays' cycles
    calls.clear()
    _never_flip(monkeypatch, key25)
    with pytest.raises(ConstructionError, match=r"^splice left 6 cycles, the second from cell \(0, 2\)$"):
        splice(key25, [0] * len(key25.rhombi))
    assert calls == ["splice.cycle_partition", "keygraph.cycle_partition"]


def _no_neighbour(cell, old, side):
    """The message of a rewrite that finds no neighbour old at cell, both ids."""
    return re.escape(f"cell {divmod(cell, side)} has no neighbour {divmod(old, side)} to flip away")


def test_a_rewrite_whose_neighbour_is_missing_names_the_cell(key25):
    # a flip of the matching that is not in the arrays, and a flip made twice
    side = key25.leaper.side
    for i in (0, len(key25.rhombus_ids) // 2, len(key25.rhombus_ids) - 1):
        a, b, c, d = key25.rhombus_ids[i]
        first, second = keygraph.neighbour_arrays(halving_ids(key25, [0] * len(key25.rhombi)), side * side)
        with pytest.raises(ConstructionError, match=f"^{_no_neighbour(b, c, side)}$"):
            keygraph.flip(list(first), list(second), b, c, d, a, side)
        keygraph.flip(first, second, a, b, c, d, side)
        with pytest.raises(ConstructionError, match=f"^{_no_neighbour(a, b, side)}$"):
            keygraph.flip(first, second, a, b, c, d, side)


def test_splice_rewriting_a_flip_twice_names_its_first_cell(monkeypatch, key25):
    # the first rhombus the pass flips, found by the generic engine, is
    # rewritten twice, so its cell a has lost b before the second rewrite
    bits = random_bits(len(key25.rhombi), 5)
    flipped, tracker = tracked_halving(key25, bits)
    first = next(i for i in range(len(bits)) if merge_flip(key25, flipped, tracker, i))
    real = splice_module.flip

    def twice(*args):
        real(*args)
        real(*args)

    monkeypatch.setattr(splice_module, "flip", twice)
    a, b = key25.rhombus_ids[first][bits[first]:][:2]  # the first two cells of its start matching
    with pytest.raises(ConstructionError, match=f"^{_no_neighbour(a, b, key25.leaper.side)}$"):
        splice(key25, bits)


@lru_cache(maxsize=None)
def _key(p, q):
    return build_key(Leaper(p, q))


LEAPERS_TO_21 = free_leapers(21)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LEAPERS_TO_21), st.integers(0, 2**32 - 1))
def test_splice_matches_oracle_on_random_halvings(pq, seed):
    key = _key(*pq)
    bits = random_bits(len(key.rhombi), seed)
    assert splice(key, bits) == _oracle_splice(key, bits)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LEAPERS_TO_21), st.none() | st.integers(0, 2**32 - 1))
def test_splices_flip_each_rhombus_once_per_merge(pq, seed):
    # the plain splice flips one rhombus per merge of the halving's cycles;
    # the symmetric one flips a partner pair per merge of its mirror
    # classes, and the centre iff the self-mirror cycles are even in number
    key = _key(*pq)
    side = key.leaper.side
    bits = random_bits(len(key.rhombus_ids), seed)
    flips, real = [], splice_module._flip_rhombus
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(splice_module, "_flip_rhombus", lambda *args: flips.append(args[-1]) or real(*args))
        splice(key, bits)
        plain = flips[:]
        flips.clear()
        symmetric_splice(key)
    assert len(set(plain)) == len(plain) == len(halve(key, bits).cycles) - 1
    cycles = halve(key, [0] * len(key.rhombus_ids)).cycles
    self_mirror = sum(mirror(cycle[0], side) in cycle for cycle in cycles)
    classes = (len(cycles) - self_mirror) // 2 + self_mirror
    assert len(set(flips)) == len(flips) == 2 * (classes - 1) + (self_mirror % 2 == 0)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(LEAPERS_TO_21),
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(1, 3),
)
def test_tours_come_out_canonical(pq, seed, k, l):
    # the CLI prints these tours as they are, without canonicalize
    key = _key(*pq)
    plain = splice(key, random_bits(len(key.rhombi), seed))
    for tour in (plain, symmetric_splice(key), tile(key.leaper, k, l, plain)):
        assert canonicalize(tour) == tour


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LEAPERS_TO_21), st.integers(0, 2**32 - 1))
def test_halving_cycles_are_its_components(nx, pq, seed):
    key = _key(*pq)
    bits = random_bits(len(key.rhombi), seed)
    graph = nx.Graph(halving_edges(key, bits))
    components = nx.number_connected_components(graph)
    assert len(halve(key, bits).cycles) == components
    _, tracker = _tracked_halving(key, bits)
    assert len({tracker.find(c) for c in range(key.leaper.side ** 2)}) == components


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 30).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60)
        )
    ),
    st.booleans(),
)
def test_cycle_tracker_finds_the_networkx_components(nx, graph_spec, as_dict):
    # random unions on a list or a dict of parents: a union merges exactly
    # when its ends are apart, and find names one root per component
    n, edges = graph_spec
    tracker = keygraph.CycleTracker({x: x for x in range(n)} if as_dict else list(range(n)))
    merges = sum(tracker.union(a, b) for a, b in edges)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    components = list(nx.connected_components(graph))
    assert merges == n - len(components)
    roots = [{tracker.find(x) for x in component} for component in components]
    assert all(len(root) == 1 for root in roots)
    assert len(set().union(*roots)) == len(components)
    assert all(tracker.parent[r] == r for (r,) in roots)


def _agrees_with_the_generic_engine(pq, seed):
    """Both splices, and the degree proof and cycle partition, against the
    engine on generic searches in oracles: the same tours, cycles and
    degree messages."""
    key = _key(*pq)
    side = key.leaper.side
    bits = random_bits(len(key.rhombus_ids), seed)
    assert splice(key, bits) == generic_splice(key, bits)
    edges = list(halving_ids(key, bits))
    k = seed % len(edges)
    for case in (edges, edges[:k] + edges[k + 1:], edges + [edges[k]]):
        arrays = keygraph.neighbour_arrays(case, side * side)
        if arrays is None:
            found = str(keygraph.degree_error(case, side * side, side))
        else:
            found = keygraph.cycle_partition(*arrays)
        try:
            expected = id_cycle_partition(case, side * side, side)
        except ConstructionError as error:
            expected = str(error)
        assert found == expected
    paired = _paired_random_bits(key, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(splice_module, "symmetric_halving_bits", lambda key, partners: list(paired))
        assert symmetric_splice(key) == growth_symmetric_splice(key, paired)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(LEAPERS_TO_21), st.integers(0, 2**32 - 1))
def test_engine_matches_the_generic_engine_to_21(pq, seed):
    _agrees_with_the_generic_engine(pq, seed)


@pytest.mark.slow
@settings(max_examples=12, deadline=None)
@given(st.sampled_from(free_leapers(61)), st.integers(0, 2**32 - 1))
def test_engine_matches_the_generic_engine_to_61(pq, seed):
    _agrees_with_the_generic_engine(pq, seed)
