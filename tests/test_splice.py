import pytest

from leapertour.geom import Leaper, reflect_cell
from leapertour.keygraph import ConstructionError, build_key, cycle_partition, halve
from leapertour.splice import (
    Tour,
    _flip_edges,
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
    from leapertour.splice import _find_center_rhombus

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
