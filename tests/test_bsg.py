import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import difference_relation, pure_diff_size, rep_items, sub, tv_failures, widen

from bsgx import _codec, bsg, relation_lemma
from bsgx.additive_stats import energy, rep_table
from bsgx.bsg import (
    ExtractionReport,
    Params,
    PWitness,
    QWitness,
    _index_dtype,
    _membership_matrices,
    case_select,
    extract,
    extract_p,
    extract_q,
    partition_pq,
)
from bsgx.errors import InvariantViolation
from bsgx.generators import gen_ap, gen_ball, gen_random
from bsgx.groups import AdditiveSet, GroupSpec
from bsgx.oracle import verify_extraction, verify_report_dict

F = Fraction
Z = GroupSpec((0,))


def zset(*vals):
    return AdditiveSet.from_elements(Z, [(v,) for v in vals])


A012 = zset(0, 1, 2)


def test_params_validation():
    Params(eps=F(1, 10))
    Params(eps=F(49, 100), run_both=True)
    for bad in (F(0), F(1, 2), F(-1, 10), F(3, 4)):
        with pytest.raises(ValueError):
            Params(eps=bad)


def test_partition_012():
    pq = partition_pq(A012)
    # popular test: r(d)^2 * 3 >= 19 needs r(d) >= 3, i.e. only d = 0
    assert [d for d, _ in pq.p_items] == [(0,)]
    assert pq.p_mass == 9
    assert pq.q_mass == 10
    assert pq.q_size == 4
    assert pq.energy == 19
    assert sorted(pq.q_counts.tolist()) == [1, 1, 2, 2]
    assert list(zip(pq.rep.decode(pq.q_codes), pq.q_counts.tolist())) == [
        ((-2,), 1),
        ((-1,), 2),
        ((1,), 2),
        ((2,), 1),
    ]


def test_partition_full_group_is_all_popular():
    full = AdditiveSet.from_elements(GroupSpec((5,)), [(i,) for i in range(5)])
    pq = partition_pq(full)
    assert pq.q_size == 0
    assert pq.q_mass == 0
    assert pq.p_mass == pq.energy == 125
    assert len(pq.p_items) == 5


def test_case_select_threshold():
    pq = partition_pq(A012)
    # 4 * p_mass = 36 vs eps * 19
    assert case_select(pq, F(1, 5)) == "P"
    assert case_select(pq, F(2, 5)) == "P"
    with pytest.raises(ValueError):
        case_select(pq, F(0))
    with pytest.raises(ValueError):
        case_select(pq, F(1, 2))


def test_extract_p_example():
    pq = partition_pq(A012)
    rep = extract_p(A012, pq, F(1, 5))
    w = rep.witness
    assert isinstance(w, PWitness)
    assert rep.case == "P"
    assert w.d_star == (0,)
    assert w.thin_threshold == 0  # floor(eps^2 * E / (16 n^2)) = 0
    assert w.thin_pairs_in_a_star == 0
    assert rep.a_prime == A012
    assert rep.a_prime_size == 3
    assert rep.diff_size == 5
    assert rep.K == F(27, 19)
    assert all(ok for _, ok in rep.checks)


def test_extract_p_counts_a_prime_equal_to_a_from_its_table(monkeypatch):
    a = gen_ball(2, 9)
    calls = []
    monkeypatch.setattr(bsg, "rep_table", lambda s: calls.append(s) or rep_table(s))
    rep = extract(a, Params(eps=F(1, 4)))
    assert rep.case == "P" and rep.a_prime == a
    # one table, the partition's: A' = A is not recounted
    assert calls == [a]
    assert rep.diff_size == energy(a).diff_size == pure_diff_size(a)


def test_each_branch_passes_its_tie_rule_to_pick_slice(monkeypatch):
    # P ranks equal scores by the larger slice, then the first d; Q by the
    # first center alone
    calls = []
    real = relation_lemma.pick_slice

    def spy(members, sizes, thin, weight, penalty, second=0):
        calls.append((weight, penalty, np.array_equal(second, sizes), np.array_equal(second, 0)))
        return real(members, sizes, thin, weight, penalty, second)

    monkeypatch.setattr(bsg, "pick_slice", spy)
    monkeypatch.setattr(relation_lemma, "pick_slice", spy)
    assert extract(gen_ap(30), Params(eps=F(1, 4))).case == "P"
    assert extract(gen_random(63, 127, 7), Params(eps=F(1, 4))).case == "Q"
    assert calls == [(F(1, 4), 4, True, False), (F(1, 8), 8, False, True)]


def test_extract_p_requires_its_hypothesis():
    a = gen_random(63, 127, 7)
    pq = partition_pq(a)
    # at eps = 1/4 the popular mass is too small for the P route
    assert case_select(pq, F(1, 4)) == "Q"
    with pytest.raises(ValueError):
        extract_p(a, pq, F(1, 4))


def test_extract_q_requires_its_hypothesis():
    pq = partition_pq(A012)
    with pytest.raises(ValueError):
        extract_q(A012, pq, F(1, 5))


@pytest.mark.parametrize("eps", [F(0), F(1, 2), F(3, 4), F(-1, 4)])
@pytest.mark.parametrize(
    "branch,a", [(extract_p, gen_ap(30)), (extract_q, gen_random(63, 127, 7))]
)
def test_branches_range_check_eps(branch, a, eps):
    pq = partition_pq(a)
    with pytest.raises(ValueError, match="eps must be in"):
        branch(a, pq, eps)


def test_extract_q_random_fixture():
    a = gen_random(63, 127, 7)
    rep = extract(a, Params(eps=F(1, 4)))
    assert rep.case == "Q"
    assert rep.energy == 125903
    assert rep.a_prime_size == 47
    assert rep.diff_size == 127
    w = rep.witness
    assert isinstance(w, QWitness)
    # the path filter ran with xi = eps / 2
    assert tv_failures(difference_relation(a, w.q_prime.elements), w.tv, F(1, 8))[0] == []
    assert len(w.q_prime) == len(w.selection.index_set)
    assert verify_extraction(a, rep).ok


def test_singleton_extracts_itself():
    rep = extract(zset(7), Params(eps=F(1, 4)))
    assert rep.case == "P"
    assert rep.a_prime == zset(7)
    assert rep.diff_size == 1


def test_run_both_at_the_exact_boundary():
    # for this set 4 * p_mass == eps * E at eps = 15876/125903, so both
    # routes' hypotheses hold simultaneously
    a = gen_random(63, 127, 7)
    pq = partition_pq(a)
    eps = F(4 * pq.p_mass, pq.energy)
    assert F(0) < eps < F(1, 2)
    assert pq.q_mass == (1 - eps / 4) * pq.energy
    single = extract(a, Params(eps=eps))
    both = extract(a, Params(eps=eps, run_both=True))
    assert single.case == "P"  # ties prefer the popular route
    assert both.case in ("P", "Q")
    # the dual run may only improve the achieved ratio
    assert F(both.diff_size, both.a_prime_size) <= F(
        single.diff_size, single.a_prime_size
    )
    assert verify_extraction(a, both).ok


def test_run_both_off_boundary_is_single_run():
    a = gen_random(63, 127, 7)
    plain = extract(a, Params(eps=F(1, 4)))
    boosted = extract(a, Params(eps=F(1, 4), run_both=True))
    assert plain.case == boosted.case == "Q"
    assert plain.a_prime == boosted.a_prime


def test_report_json_shape():
    rep = extract(A012, Params(eps=F(1, 5)))
    doc = json.loads(rep.to_json())
    assert doc["version"] == "0.1.0"
    assert doc["params"] == {"eps": "1/5", "run_both": False}
    assert doc["input"] == {"n": 3, "energy": 19, "K": "27/19"}
    assert doc["case"] == "P"
    assert doc["witness"]["d_star"] == [0]
    assert doc["achieved"] == {"a_prime_size": 3, "diff_size": 5}
    assert doc["a_prime"].startswith("aset 1\n")
    assert set(doc["bounds"]) == {"size_bound_sq", "diff_bound", "diff_bound_p"}
    for chk in doc["checks"]:
        assert chk["pass"] is True
    assert verify_report_dict(A012, doc).ok


def test_report_json_q_case_embeds_q_prime():
    a = gen_random(40, 79, 12)
    rep = extract(a, Params(eps=F(2, 5)))
    assert rep.case == "Q"
    assert (rep.a_prime_size, rep.diff_size) == (31, 79)
    doc = rep.to_json_dict()
    assert doc["witness"]["q_prime"].startswith("aset 1\n")
    assert doc["witness"]["delta"].count("/") <= 1
    assert doc["bounds"].keys() == {"size_bound_sq", "diff_bound"}
    assert verify_report_dict(a, doc).ok


def test_reports_are_deterministic_objects():
    a = gen_random(50, 101, 5)
    r1 = extract(a, Params(eps=F(1, 4)))
    r2 = extract(a, Params(eps=F(1, 4)))
    s1, s2 = r1.witness.selection, r2.witness.selection
    # a selection compares by identity, since its order is an array
    assert s1.order.tolist() == s2.order.tolist()
    assert {**vars(s1), "order": None} == {**vars(s2), "order": None}
    unselected = [replace(r, witness=replace(r.witness, selection=None)) for r in (r1, r2)]
    assert unselected[0] == unselected[1]
    assert r1.to_json() == r2.to_json()


def test_branch_q_report_bytes_do_not_depend_on_chunking(monkeypatch):
    a = gen_random(40, 79, 12)
    params = Params(eps=F(2, 5))
    whole = extract(a, params).to_json()
    assert json.loads(whole)["case"] == "Q"
    # a tiny block budget splits every scan into one-row chunks
    monkeypatch.setattr(_codec, "BLOCK_CELLS", 64)
    assert extract(a, params).to_json() == whole


# a ball of Z^2 with nine popular differences, and a box of Z x Z_7 whose
# second coordinate wraps
MEMBERSHIP_SETS = (
    lambda: gen_ball(2, 9),
    lambda: AdditiveSet.from_elements(GroupSpec((0, 7)), [(x, y) for x in range(6) for y in range(4)]),
)


@pytest.mark.parametrize("wide", [False, True])
def test_membership_matrices_match_their_definitions(wide, monkeypatch):
    for build in MEMBERSHIP_SETS:
        a = widen(build(), wide)
        pq = partition_pq(a)
        assert (pq.rep.codec is None) == wide
        table = dict(rep_items(pq.rep))
        elems = a.elements
        # the default block gathers from the column table; the 169- and
        # 77-code ranges pass 64 cells, so that block searches
        for cells in (_codec.BLOCK_CELLS, 64):
            monkeypatch.setattr(_codec, "BLOCK_CELLS", cells)
            # no difference is thin at floor 0
            for thin_floor in (6, 0):
                x_mat, m_mat = _membership_matrices(pq, thin_floor)
                assert x_mat.tolist() == [
                    [table[sub(a.spec, x, y)] <= thin_floor for y in elems] for x in elems
                ]
                assert m_mat.shape == (len(a), len(pq.p_items))
                for t, (d, _) in enumerate(pq.p_items):
                    # A_d = A intersect (A + d)
                    assert m_mat[:, t].tolist() == [sub(a.spec, x, d) in a.as_set for x in elems], d


def test_membership_matrices_refuse_a_thin_floor_at_the_popular_floor():
    pq = partition_pq(gen_ball(2, 9))
    pop_floor = min(c for _, c in pq.p_items)
    _membership_matrices(pq, pop_floor - 1)
    with pytest.raises(InvariantViolation, match="thin floor"):
        _membership_matrices(pq, pop_floor)


def test_flat_scatter_index_dtype_holds_the_last_cell():
    # the flat index of the last cell of n * (k + 2) cells is n * (k + 2) - 1
    assert _index_dtype(1 << 31) == np.int32
    assert _index_dtype((1 << 31) + 1) == np.int64


def test_q_prime_equals_the_validated_set():
    a = gen_random(40, 79, 12)
    report = extract(a, Params(eps=F(2, 5)))
    assert report.case == "Q"
    q_prime = report.witness.q_prime
    # the checked constructor re-validates every element and the order
    assert q_prime == AdditiveSet(a.spec, q_prime.elements)
    assert q_prime == AdditiveSet.from_elements(a.spec, q_prime.elements)
    assert len(q_prime) == report.witness.selection.chosen_i


def test_theorem_bounds_recorded_exactly():
    n = 10
    a = gen_ap(n)
    eps = F(1, 10)
    rep = extract(a, Params(eps=eps))
    e = rep.energy
    assert rep.size_bound_sq == (1 - eps) ** 2 * F(e, n)
    k = F(n**3, e)
    assert rep.diff_bound == 2**33 * eps**-9 * k**4 * rep.a_prime_size
    # the P route strengthening is recorded only in case P
    if rep.case == "P":
        assert rep.diff_bound_p == 2**10 * eps**-4 * k**3 * rep.a_prime_size
