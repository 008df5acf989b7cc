import pytest

import leapertour.splice as splice_module
from leapertour.cli import free_leapers
from leapertour.geom import Leaper, reflect, reflect_cell
from leapertour.keygraph import (
    ConstructionError,
    build_key,
    cycle_partition,
    halve,
    halving_edges,
)
from leapertour.splice import (
    Tour,
    _find_center_rhombus,
    _flip_edges,
    _partners,
    canonicalize,
    current_matching,
    random_bits,
    splice,
    symmetric_halving_bits,
    symmetric_splice,
)
from leapertour.verify import verify_central_symmetry, verify_tour


@pytest.fixture(scope="module")
def key25():
    return build_key(Leaper(2, 5))


def test_flip_is_involution(key25):
    two = halve(key25, [0] * len(key25.rhombi))
    r = key25.rhombi[0]
    edges = set(two.edges)
    _flip_edges(edges, r)
    assert edges != two.edges
    _flip_edges(edges, r)
    assert edges == two.edges


def test_flip_changes_exactly_four_edges(key25):
    two = halve(key25, [0] * len(key25.rhombi))
    r = key25.rhombi[5]
    flipped = set(two.edges)
    _flip_edges(flipped, r)
    assert len(two.edges ^ flipped) == 4
    assert len(flipped) == len(two.edges)


def test_flip_merges_cycles_when_edges_on_different_cycles(key25):
    two = halve(key25, [0] * len(key25.rhombi))
    cycle_of = {}
    for i, cyc in enumerate(two.cycles):
        for cell in cyc:
            cycle_of[cell] = i
    for r in key25.rhombi:
        e1, e2 = r.matching(current_matching(two.edges, r))
        if cycle_of[e1[0]] != cycle_of[e2[0]]:
            flipped = set(two.edges)
            _flip_edges(flipped, r)
            assert len(cycle_partition(flipped)) == len(two.cycles) - 1
            break
    else:
        pytest.skip("all-zero halving produced a single cycle")


def test_flip_rejects_non_matching_subset(key25):
    two = halve(key25, [0] * len(key25.rhombi))
    r = key25.rhombi[0]
    broken = set(two.edges)
    broken.discard(r.matching(0)[0])
    with pytest.raises(ConstructionError):
        current_matching(broken, r)


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


def test_symmetric_halving_is_symmetric(key25):
    side = key25.leaper.side
    bits = symmetric_halving_bits(key25)
    two = halve(key25, bits)
    mirrored = {
        tuple(sorted((reflect_cell(a, side, "center"), reflect_cell(b, side, "center"))))
        for a, b in two.edges
    }
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
        r1 = _find_center_rhombus(key)
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


def _oracle_symmetric_splice(key):
    """The symmetric growth loop as it was before the shared merge-flip
    engine: it re-partitions the whole board into cycles at every step."""
    side = key.leaper.side
    edges = halving_edges(key, symmetric_halving_bits(key))
    partners = _partners(key)

    def cycle_cells_through(cell):
        return next(frozenset(cyc) for cyc in cycle_partition(edges) if cell in cyc)

    r1 = _find_center_rhombus(key)
    anchor = r1.cells[0]
    e1, e2 = r1.matching(current_matching(edges, r1))
    if e2[0] not in cycle_cells_through(e1[0]):
        _flip_edges(edges, r1)
    grown = cycle_cells_through(anchor)
    while True:
        straddling = None
        for i, r in enumerate(key.rhombi):
            m1, m2 = r.matching(current_matching(edges, r))
            if (m1[0] in grown) != (m2[0] in grown):
                straddling = i
                break
        if straddling is None:
            break
        pending, rstar = key.rhombi[straddling], key.rhombi[partners[straddling]]
        out_edge = next(
            e for e in pending.matching(current_matching(edges, pending)) if e[0] not in grown
        )
        if reflect(out_edge, side, "center")[0] in cycle_cells_through(out_edge[0]):
            _flip_edges(edges, r1)
        _flip_edges(edges, pending)
        _flip_edges(edges, rstar)
        new_grown = cycle_cells_through(anchor)
        assert len(new_grown) > len(grown)
        grown = new_grown
    cycles = cycle_partition(edges)
    assert len(cycles) == 1 and len(cycles[0]) == side * side
    return Tour(cells=cycles[0])


def _oracle_splice(key, bits):
    """The plain splice as it was before the shared engine: the tracker
    unions the two new edges of every flip."""
    edges = halving_edges(key, bits)
    tracker = splice_module.CycleTracker({c for e in edges for c in e})
    for a, b in edges:
        tracker.union(a, b)
    for r in key.rhombi:
        e1, e2 = r.matching(current_matching(edges, r))
        if tracker.find(e1[0]) != tracker.find(e2[0]):
            _flip_edges(edges, r)
            for a, b in r.matching(current_matching(edges, r)):
                tracker.union(a, b)
    (cycle,) = cycle_partition(edges)
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


@pytest.mark.parametrize("p,q", [(2, 5), (6, 13), (12, 25)])
def test_symmetric_splice_partitions_the_board_once(monkeypatch, p, q):
    key = build_key(Leaper(p, q))
    calls = []

    def counting_partition(edges):
        calls.append(len(edges))
        return cycle_partition(edges)

    monkeypatch.setattr(splice_module, "cycle_partition", counting_partition)
    symmetric_splice(key)
    assert calls == [key.leaper.side ** 2]
