from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    common_counts,
    difference_relation,
    neighborhoods,
    relation_from_element_pairs,
    relation_from_index_pairs,
    sub,
    tv_failures,
    widen,
    zset,
)

import bsgx.relation_lemma as relation_lemma
from bsgx import _codec
from bsgx.additive_stats import rep_table
from bsgx.errors import InvariantViolation
from bsgx.generators import SplitMix64, gen_ap, gen_random
from bsgx.groups import AdditiveSet, GroupSpec
from bsgx.relation_lemma import (
    Relation,
    drop_thin,
    exact_float,
    extract_tv,
    pick_slice,
    thin_pairs_per_slice,
)

F = Fraction


def complete_relation(base):
    n = len(base)
    return Relation(base, np.ones((n, n), dtype=bool))


def test_constructors_agree():
    base = zset(0, 1, 2)
    r1 = relation_from_index_pairs(base, [(1, 0), (2, 1)])
    r2 = relation_from_element_pairs(base, [((1,), (0,)), ((2,), (1,))])
    r3 = difference_relation(base, [(1,)])
    assert (r1.matrix == r2.matrix).all()
    assert (r1.matrix == r3.matrix).all()
    assert r1.size == 2
    assert r1.delta == F(2, 9)
    assert np.argwhere(r1.matrix).tolist() == [[1, 0], [2, 1]]


def test_bad_constructor_input():
    base = zset(0, 1)
    with pytest.raises(ValueError):
        relation_from_index_pairs(base, [(0, 2)])
    with pytest.raises(ValueError):
        Relation(base, np.ones((2, 3), dtype=bool))
    with pytest.raises(ValueError):
        Relation(base, np.ones((2, 2), dtype=np.int64))


def test_neighborhoods_convention():
    # (a, b) in R iff a - b in {1}; N(x) collects the left entries
    base = zset(0, 1, 2)
    r = difference_relation(base, [(1,)])
    nb = neighborhoods(r)
    assert nb[(0,)] == {(1,)}
    assert nb[(1,)] == {(2,)}
    assert nb[(2,)] == frozenset()


def test_difference_set_relation_reduces_members():
    base = AdditiveSet.from_elements(GroupSpec((5,)), [(0,), (1,), (3,)])
    # -4 is 1 mod 5, so both name the same member
    r1 = difference_relation(base, [(-4,)])
    r2 = difference_relation(base, [(1,)])
    assert (r1.matrix == r2.matrix).all()


def test_difference_set_relation_brute_force():
    rng = SplitMix64(31)
    for _ in range(10):
        base = gen_random(1 + rng.below(30), 53, rng.next_u64())
        members = [(rng.below(53),) for _ in range(rng.below(8))]
        r = difference_relation(base, members)
        mset = {base.spec.reduce(m) for m in members}
        for i, a in enumerate(base.elements):
            for j, b in enumerate(base.elements):
                assert r.matrix[i, j] == (sub(base.spec, a, b) in mset)


@pytest.mark.parametrize("wide", [False, True])
def test_relation_from_all_or_no_codes(wide):
    base = widen(gen_random(20, 53, 5), wide)
    rep = rep_table(base)
    assert (rep.codec is None) == wide
    assert Relation.from_difference_set(rep, rep.codes).matrix.all()
    assert not Relation.from_difference_set(rep, rep.codes[:0]).matrix.any()


def test_common_counts_identity():
    # sum over ordered pairs of |common right-partners| equals the sum of
    # squared column degrees
    base = gen_random(18, 101, 9)
    r = difference_relation(base, [(d,) for d in (1, 5, 17, 44)])
    counts = common_counts(r)
    nb = neighborhoods(r)
    assert sum(counts.values()) == sum(len(v) ** 2 for v in nb.values())
    # spot-check one entry against the definition
    a, b = base.elements[0], base.elements[1]
    manual = sum(
        1 for x in base.elements if a in nb[x] and b in nb[x]
    )
    assert counts[(a, b)] == manual


def test_extract_tv_on_complete_relation():
    base = zset(*range(12))
    r = complete_relation(base)
    w = extract_tv(r, F(1, 2))
    # every pair has n common partners, nothing is thin, nothing is filtered
    assert w.delta == 1
    assert w.a_star == base
    assert w.a_prime == base
    assert w.omega_card_in_astar == 0
    assert w.x_star == (0,)  # first maximizer wins
    assert tv_failures(r, w, F(1, 2))[0] == []


def test_extract_tv_rejects_bad_xi():
    r = complete_relation(zset(0, 1))
    for xi in (F(0), F(3, 2), F(-1, 4)):
        with pytest.raises(ValueError):
            extract_tv(r, xi)
    extract_tv(r, F(1))  # xi = 1 is allowed


def test_extract_tv_rejects_an_empty_relation():
    base = zset(0, 1, 2)
    with pytest.raises(ValueError, match="nonempty"):
        extract_tv(Relation(base, np.zeros((3, 3), dtype=bool)), F(1, 2))


def test_extract_tv_nesting_and_floor():
    rng = SplitMix64(555)
    for trial in range(12):
        n = 10 + rng.below(41)
        base = gen_ap(n)
        density = F(2 + rng.below(9), 10)
        target = -(-density.numerator * n * n // density.denominator)
        pairs = set()
        while len(pairs) < target:
            pairs.add((rng.below(n), rng.below(n)))
        r = relation_from_index_pairs(base, pairs)
        xi = F(1 + rng.below(9), 10)
        rng.below(3)  # an unused draw, kept so the later trials stay the same
        w = extract_tv(r, xi)
        assert w.delta == r.delta
        a_star = set(w.a_star.elements)
        assert set(w.a_prime.elements) <= a_star <= set(base.elements)
        # size floor from the construction: |A'| >= delta*(1-xi)*n
        assert len(w.a_prime) >= w.delta * (1 - xi) * n
        assert tv_failures(r, w, xi)[0] == []


def thin_core_relation():
    """A dense core of 20 rows related to every one of 40 columns, and 20
    sparse rows with at most two partners among the first 6 columns: thin
    pairs then sit in many row blocks, and the centers among those 6 columns
    pay for them."""
    rng = SplitMix64(31)
    pairs = [(i, j) for i in range(20) for j in range(40)]
    pairs += [(i, rng.below(6)) for i in range(20, 40) for _ in range(2)]
    return relation_from_index_pairs(gen_ap(40), pairs)


@pytest.mark.parametrize("cells", [64, 400, 1000])
def test_extract_tv_is_independent_of_block_size(cells, monkeypatch):
    # Omega's row blocks are formed on and right of the diagonal and mirrored
    # below it; one-row blocks, four equal ones and a short last one must
    # count the thin pairs of A* as the definition does, and give the
    # witness of the default single block
    r = thin_core_relation()
    xi = F(1)
    monkeypatch.setattr(_codec, "BLOCK_CELLS", cells)
    got = extract_tv(r, xi)
    monkeypatch.undo()
    thin = r.delta**2 * xi**2 * len(r.base) / 8
    counts = common_counts(r)
    star = got.a_star.elements
    omega = sum(1 for a in star for b in star if counts[(a, b)] <= thin)
    assert got.omega_card_in_astar == omega > 0
    assert got == extract_tv(r, xi)


def test_tv_witness_verified_synthetic():
    # a relation with visibly uneven degrees still yields a certified subset
    base = zset(*range(20))
    pairs = [(i, j) for i in range(20) for j in range(20) if (i * j) % 7 < 3]
    r = relation_from_index_pairs(base, pairs)
    assert F(1, 5) < r.delta < 1
    w = extract_tv(r, F(1, 3))
    assert tv_failures(r, w, F(1, 3))[0] == []


def test_exact_float_bound_is_guarded():
    # bounds only: nothing of these sizes is allocated
    assert exact_float(1) is np.float32
    assert exact_float(1 << 24) is np.float32
    assert exact_float((1 << 24) + 1) is np.float64
    assert exact_float(20_000 * 20_000) is np.float64
    assert exact_float(1 << 53) is np.float64
    with pytest.raises(InvariantViolation):
        exact_float((1 << 53) + 1)


def test_extract_tv_asks_the_guard_and_agrees_in_float64(monkeypatch):
    # at xi = 1 thin_core_relation's threshold floor is 1, so the products run
    r = thin_core_relation()
    n = len(r.base)
    asked = []

    def spy(bound):
        asked.append(bound)
        return exact_float(bound)

    monkeypatch.setattr(relation_lemma, "exact_float", spy)
    w32 = extract_tv(r, F(1))
    # the relation's float copy, then thin_pairs_per_slice's GEMM and sum
    assert asked == [n, n, n * n]
    monkeypatch.setattr(relation_lemma, "exact_float", lambda bound: np.float64)
    assert extract_tv(r, F(1)) == w32


def reference_tv(r, xi):
    """x*, A*, A' and the thin pairs of A*^2, with Omega = [common <= t] over
    all of A^2 as the paper writes it, counted inside each N(x) by definition."""
    n = len(r.base)
    thin = r.delta**2 * xi**2 * n / 8
    counts = common_counts(r)
    nbs = neighborhoods(r)

    def omega(nb):
        return sum(1 for a in nb for b in nb if counts[(a, b)] <= thin)

    scores = [(xi * len(nb) ** 2 - 8 * omega(nb), x) for x, nb in nbs.items()]
    best = max(score for score, _ in scores)
    x_star = min(x for score, x in scores if score == best)
    star = sorted(nbs[x_star])
    prime = [a for a in star if 4 * sum(counts[(a, b)] <= thin for b in star) <= len(star)]
    return x_star, star, prime, omega(star)


@pytest.mark.parametrize("cells", [None, 64])
@pytest.mark.parametrize("xi", [F(1), F(1, 2)], ids=["floor-1", "floor-0"])
def test_extract_tv_matches_the_definition(xi, cells, monkeypatch):
    # at xi = 1 the threshold floor is 1 and thin_core_relation has pairs with
    # no common neighbor and pairs with one; at xi = 1/2 the floor is 0
    r = thin_core_relation()
    thin = r.delta**2 * xi**2 * len(r.base) / 8
    counts = common_counts(r).values()
    if xi == 1:
        assert 1 <= thin < 2 and 0 in counts and 1 in counts
    else:
        assert thin < 1
    if cells is not None:
        monkeypatch.setattr(_codec, "BLOCK_CELLS", cells)
    w = extract_tv(r, xi)
    x_star, star, prime, omega = reference_tv(r, xi)
    assert w.x_star == x_star
    assert list(w.a_star) == star
    assert list(w.a_prime) == prime
    assert [r.base.elements[i] for i in w.a_prime_rows] == prime
    assert w.omega_card_in_astar == omega
    assert (omega > 0) == (xi == 1)


def test_extract_tv_forms_no_product_below_one_common_neighbor(monkeypatch):
    # at xi = 1/2 no pair can have at least one and at most floor(thin) = 0
    # common neighbors: no float dtype is asked for and no thin pair counted
    r = thin_core_relation()

    def no_product(*args):
        raise AssertionError("a float product ran")

    monkeypatch.setattr(relation_lemma, "exact_float", no_product)
    monkeypatch.setattr(relation_lemma, "thin_pairs_per_slice", no_product)
    w = extract_tv(r, F(1, 2))
    assert w.a_prime == w.a_star and w.omega_card_in_astar == 0
    assert tv_failures(r, w, F(1, 2))[0] == []


@pytest.mark.parametrize("cells", [None, 64])
def test_thin_pair_helpers_match_their_definitions(cells, monkeypatch):
    if cells is not None:
        monkeypatch.setattr(_codec, "BLOCK_CELLS", cells)
    rng = SplitMix64(77)
    for trial in range(8):
        n = 1 + rng.below(40)
        k = 1 + rng.below(12)
        # sparse thin matrices leave whole row blocks without a thin pair
        thin_per_mille = (0, 20, 300, 1000)[trial % 4]
        members = np.array([[rng.below(2) for _ in range(k)] for _ in range(n)], dtype=bool)
        thin = np.array(
            [[rng.below(1000) < thin_per_mille for _ in range(n)] for _ in range(n)], dtype=bool
        )
        counts = thin_pairs_per_slice(members, thin)
        assert counts.dtype == np.int64
        assert counts.tolist() == [
            sum(
                1
                for i in range(n)
                for j in range(n)
                if members[i, t] and thin[i, j] and members[j, t]
            )
            for t in range(k)
        ]
        # each slice, then all of A (A* = A, as on an AP's d* = 0)
        for rows in [np.flatnonzero(members[:, t]) for t in range(k)] + [np.arange(n)]:
            kept = [
                i for i in rows.tolist() if 4 * sum(thin[i, j] for j in rows.tolist()) <= len(rows)
            ]
            assert drop_thin(rows, thin).tolist() == kept


def slices(n, *columns):
    """An n x k membership matrix with slice t holding the rows columns[t]."""
    members = np.zeros((n, len(columns)), dtype=bool)
    for t, rows in enumerate(columns):
        members[rows, t] = True
    return members, members.sum(axis=0, dtype=np.int64)


def test_pick_slice_ranks_equal_scores_by_the_second_key():
    # slice 0 = {0, 1} has no thin pair and scores 2^2 = 4; slice 1 = {1, 2, 3}
    # has the 5 ordered thin pairs below and scores 3^2 - 5 = 4
    members, sizes = slices(4, [0, 1], [1, 2, 3])
    thin = np.zeros((4, 4), dtype=bool)
    for i, j in [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3)]:
        thin[i, j] = True
    # branch P's key: the larger slice wins; rows 1 and 2 have 2 thin partners
    # in it, more than 3 / 4, and row 3 one, so drop_thin keeps none of them
    t, count, rows, kept = pick_slice(members, sizes, thin, F(1), 1, second=sizes)
    assert (t, count, rows.tolist(), kept.tolist()) == (1, 5, [1, 2, 3], [])
    # with no second key the first maximum wins
    t, count, rows, kept = pick_slice(members, sizes, thin, F(1), 1)
    assert (t, count, rows.tolist(), kept.tolist()) == (0, 0, [0, 1], [0, 1])


def test_pick_slice_keeps_the_first_of_equal_scores_and_sizes():
    # slices 1 and 2 tie on score and size; the one thin pair (0, 1) of
    # slice 1 is matched by (3, 2) in slice 2, and each drops its rows
    members, sizes = slices(4, [0], [0, 1], [2, 3])
    thin = np.zeros((4, 4), dtype=bool)
    thin[0, 1] = thin[3, 2] = True
    for second in (0, sizes):
        t, count, rows, kept = pick_slice(members, sizes, thin, F(1, 2), 1, second=second)
        assert (t, count, rows.tolist(), kept.tolist()) == (1, 1, [0, 1], [1])


def test_pick_slice_without_thin_pairs_forms_no_product(monkeypatch):
    def no_product(*args):
        raise AssertionError("a thin-pair product ran")

    monkeypatch.setattr(relation_lemma, "thin_pairs_per_slice", no_product)
    members, sizes = slices(5, [0, 4], [1, 2, 3], [0, 1, 2])
    t, count, rows, kept = pick_slice(members, sizes, None, F(1, 3), 8)
    assert (t, count, rows.tolist(), kept.tolist()) == (1, 0, [1, 2, 3], [1, 2, 3])
