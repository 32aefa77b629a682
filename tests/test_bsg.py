import json
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import branch_p_reference, difference_relation, pure_diff_size, sub, tv_failures, widen

from bsgx import _codec, additive_stats, bsg, relation_lemma
from bsgx.additive_stats import energy, rep_table
from bsgx.bsg import (
    ExtractionReport,
    Params,
    PWitness,
    QWitness,
    _slice_members,
    extract,
    extract_p,
    extract_q,
    partition_pq,
)
from bsgx.errors import InvariantViolation
from bsgx.generators import gen_ap, gen_ball, gen_random
from bsgx.groups import AdditiveSet, GroupSpec
from bsgx.oracle import verify_report_dict
from bsgx.relation_lemma import Relation

F = Fraction
Z = GroupSpec((0,))


def zset(*vals):
    return AdditiveSet.from_elements(Z, [(v,) for v in vals])


A012 = zset(0, 1, 2)
# [0, 400) with the far points 10^6 and 10^6 + 1: d = -2 and d = +2 tie at eps 2/5
TIE = zset(*range(400), 10**6, 10**6 + 1)


def test_params_validation():
    Params(eps=F(1, 10))
    Params(eps=F(49, 100))
    assert [f.name for f in fields(Params)] == ["eps"]
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
    q_counts = pq.rep.counts[~pq.popular]
    assert sorted(q_counts.tolist()) == [1, 1, 2, 2]
    assert list(zip(pq.rep.coder.decode(pq.rep.codes[~pq.popular]), q_counts.tolist())) == [
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
    # extract is the one place that picks the branch
    assert not hasattr(bsg, "case_select")
    pq = partition_pq(A012)
    # 4 * p_mass = 36 vs eps * 19, and q_mass = 10 vs (1 - eps/4) * 19
    for eps in (F(1, 5), F(2, 5)):
        assert pq.p_holds(eps) and not pq.q_holds(eps)
        assert extract(A012, Params(eps=eps)).case == "P"
    for eps in (F(0), F(1, 2)):
        with pytest.raises(ValueError):
            Params(eps=eps)
        with pytest.raises(ValueError):
            extract_p(A012, pq, eps)


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
    # on an AP only d = 0 is left and pick_slice never runs; the tie set
    # keeps d = -2 and d = +2 live
    assert extract(TIE, Params(eps=F(2, 5))).case == "P"
    assert extract(gen_random(63, 127, 7), Params(eps=F(1, 4))).case == "Q"
    assert calls == [(F(2, 5), 4, True, False), (F(1, 8), 8, False, True)]


def test_extract_p_requires_its_hypothesis():
    a = gen_random(63, 127, 7)
    pq = partition_pq(a)
    # at eps = 1/4 the popular mass is too small for the P route
    assert not pq.p_holds(F(1, 4)) and pq.q_holds(F(1, 4))
    assert extract(a, Params(eps=F(1, 4))).case == "Q"
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
    assert verify_report_dict(a, rep.to_json_dict()).ok


def test_singleton_extracts_itself():
    rep = extract(zset(7), Params(eps=F(1, 4)))
    assert rep.case == "P"
    assert rep.a_prime == zset(7)
    assert rep.diff_size == 1


def count_branch_calls(monkeypatch):
    """Wrap extract_p and extract_q so that each counts its calls."""
    calls = {"P": 0, "Q": 0}
    for case, name in (("P", "extract_p"), ("Q", "extract_q")):
        def counted(*args, _case=case, _branch=getattr(bsg, name)):
            calls[_case] += 1
            return _branch(*args)
        monkeypatch.setattr(bsg, name, counted)
    return calls


def test_run_both_at_the_exact_boundary(monkeypatch):
    # for this set 4 * p_mass == eps * E at eps = 15876/125903, so both
    # routes' hypotheses hold simultaneously
    a = gen_random(63, 127, 7)
    pq = partition_pq(a)
    eps = F(4 * pq.p_mass, pq.energy)
    assert F(0) < eps < F(1, 2)
    assert pq.q_mass == (1 - eps / 4) * pq.energy
    assert pq.p_holds(eps) and pq.q_holds(eps)
    direct = [branch(a, pq, eps) for branch in (extract_p, extract_q)]
    calls = count_branch_calls(monkeypatch)
    both = extract(a, Params(eps=eps))
    assert calls == {"P": 1, "Q": 1}
    assert both.case in ("P", "Q")
    # the dual run keeps the better achieved ratio
    assert all(F(both.diff_size, both.a_prime_size) <= F(r.diff_size, r.a_prime_size) for r in direct)
    assert verify_report_dict(a, both.to_json_dict()).ok
    # extract records that both ran; a branch called directly records False
    assert both.run_both and not any(r.run_both for r in direct)
    best = min(direct, key=lambda r: (F(r.diff_size, r.a_prime_size), -r.a_prime_size))
    assert both.to_json() == replace(best, run_both=True).to_json()


def test_run_both_off_boundary_is_single_run(monkeypatch):
    calls = count_branch_calls(monkeypatch)
    for a, eps, case in ((gen_random(63, 127, 7), F(1, 4), "Q"), (gen_ap(40, 3, 7), F(1, 4), "P")):
        pq = partition_pq(a)
        assert pq.p_holds(eps) != pq.q_holds(eps)
        calls.update(P=0, Q=0)
        report = extract(a, Params(eps=eps))
        assert report.case == case and not report.run_both
        assert calls == {"P": int(case == "P"), "Q": int(case == "Q")}
        # the branch's own report comes back as it is
        assert report.to_json() == (extract_p if case == "P" else extract_q)(a, pq, eps).to_json()


def test_extract_refuses_a_set_where_neither_hypothesis_holds(monkeypatch):
    calls = count_branch_calls(monkeypatch)
    monkeypatch.setattr(bsg.PartitionPQ, "p_holds", lambda self, eps: False)
    monkeypatch.setattr(bsg.PartitionPQ, "q_holds", lambda self, eps: False)
    with pytest.raises(InvariantViolation, match="neither branch hypothesis holds"):
        extract(A012, Params(eps=F(1, 5)))
    assert calls == {"P": 0, "Q": 0}


def test_case_is_read_off_the_witness():
    assert [f.name for f in fields(ExtractionReport)] == [
        "a_set", "energy", "eps", "run_both", "witness", "a_prime", "diff_size",
    ]
    knife = gen_random(63, 127, 7)
    pq = partition_pq(knife)
    reports = [
        extract(gen_ap(30), Params(eps=F(1, 4))),
        extract(knife, Params(eps=F(1, 4))),
        extract(knife, Params(eps=F(4 * pq.p_mass, pq.energy))),
    ]
    assert [(r.case, r.run_both) for r in reports[:2]] == [("P", False), ("Q", False)]
    assert reports[2].run_both
    for report in reports:
        assert report.case == ("P" if isinstance(report.witness, PWitness) else "Q")
        assert report.to_json_dict()["case"] == report.case
        # a report cannot pair a witness with the other branch's name
        with pytest.raises(TypeError):
            replace(report, case="Q")
    # moving the other branch's witness in moves the case with it
    p_report, q_report = reports[:2]
    assert replace(q_report, witness=p_report.witness).case == "P"
    assert replace(p_report, witness=q_report.witness).case == "Q"


def test_branch_p_breaks_a_score_tie_by_slice_size_then_first_d(monkeypatch):
    # A = [0, 400) with the far points 10^6 and 10^6 + 1, at eps 2/5: d = 0
    # keeps all 402 elements, but its slice holds 1,606 thin pairs, 1,600 of
    # them joining the far points to the interval, while d = -2 and d = +2
    # keep {0, ..., 397} and {2, ..., 399}, with no thin pair
    a, eps = TIE, F(2, 5)
    calls = []
    real = bsg.pick_slice

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(bsg, "pick_slice", spy)
    report = extract(a, Params(eps=eps))
    [((members, sizes, thin, weight, penalty), kwargs, (t, s_star, _, _))] = calls
    assert np.array_equal(kwargs["second"], sizes) and (weight, penalty) == (eps, 4)
    # score and slice size of every popular d, recounted from the set pair by pair
    ranked, expected = branch_p_reference(a, eps)
    top = max(ranked.values())
    assert top == (F(316808, 5), 398)
    assert [d for d, rank in ranked.items() if rank == top] == [(-2,), (2,)]
    zero = ranked[(0,)]
    assert zero == (eps * 402**2 - 4 * 1606, 402)
    # pick_slice ranks the live d, those with eps * (402^2 - r(d)^2) <= 4 * 1606,
    # in order; every pruned d scores below d = 0
    live = [d for d, (_, size) in ranked.items() if eps * (402**2 - size**2) <= 4 * 1606]
    assert sizes.tolist() == [ranked[d][1] for d in live] and members.shape == (402, len(live))
    assert 0 < len(live) < len(ranked)
    assert all(rank[0] < zero[0] for d, rank in ranked.items() if d not in live)
    # the first of the tied d wins
    assert live[t] == report.witness.d_star == (-2,)
    w = report.witness
    assert (s_star, w.thin_pairs_in_a_star, w.thin_threshold) == (0, 0, 2)
    assert w.a_star == report.a_prime == zset(*range(398))
    assert expected == (w.d_star, w.a_star, w.thin_pairs_in_a_star, report.a_prime)
    assert verify_report_dict(a, report.to_json_dict()).status == "pass"


def test_branch_p_thin_filter_drops_an_element(monkeypatch):
    # A* = A_0 = A, and at eps 2/5 the thin floor is 1: -485 has more than
    # |A*|/4 thin partners, so the filter drops it and A' is a proper subset
    a = zset(*range(200), -485, -427, -413)
    sizes = []
    real = additive_stats._sorted_pair_codes
    scans = []
    real_relation = Relation.from_difference_set.__func__

    def spy(coder, blocks):
        sizes.append([len(left) * len(right) for left, right in blocks])
        return real(coder, blocks)

    def relation_spy(cls, rep, codes):
        scans.append(len(codes))
        return real_relation(cls, rep, codes)

    monkeypatch.setattr(additive_stats, "_sorted_pair_codes", spy)
    monkeypatch.setattr(bsg, "_slice_members", _no_scan)
    monkeypatch.setattr(Relation, "from_difference_set", classmethod(relation_spy))
    report = extract(a, Params(eps=F(2, 5)))
    # d = 0 alone is left, and 4 * min(T0, #thin d) = 4 * 146 passes n = 203:
    # one lookup scan of the 146 thin codes counts each row's thin partners
    assert scans == [146]
    w = report.witness
    assert report.case == "P" and w.d_star == (0,) and w.a_star == a
    assert (w.thin_threshold, w.thin_pairs_in_a_star) == (1, 146)
    assert report.a_prime == zset(*range(200), -427, -413)
    assert report.diff_size == pure_diff_size(report.a_prime) == 827
    # the recount sorted the 203 + 202 pairs that A' loses, not its own 202^2
    assert sizes == [[203 * 203], [203, 202]]
    assert verify_report_dict(a, report.to_json_dict()).status == "pass"
    # below eps 2/5 the floor is 0 and nothing drops
    for eps in (F(1, 10), F(1, 4), F(1, 3)):
        low = extract(a, Params(eps=eps))
        assert low.witness.thin_threshold == 0 and low.a_prime == a
    assert scans == [146]


def _no_scan(*args):
    raise AssertionError("an n^2 scan ran after the rep table")


@pytest.mark.parametrize("eps", [F(1, 10), F(1, 4)])
def test_aps_and_balls_leave_d_zero_alone_and_scan_nothing(eps, monkeypatch):
    # no d != 0 has r(d) near n, and the thin floor is 0 (T0 = 0), so every
    # d != 0 scores below d = 0: A* = A' = A with no n^2 pass after the table
    monkeypatch.setattr(bsg, "_slice_members", _no_scan)
    monkeypatch.setattr(Relation, "from_difference_set", classmethod(_no_scan))
    for a in (gen_ap(300, 5, 3), gen_ap(211), gen_ball(2, 100), gen_ball(3, 20)):
        report = extract(a, Params(eps=eps))
        w = report.witness
        assert report.case == "P" and w.d_star == a.spec.zero()
        assert (w.thin_threshold, w.thin_pairs_in_a_star) == (0, 0)
        assert w.a_star == report.a_prime == a


def _cyclic(m, xs):
    return AdditiveSet.from_elements(GroupSpec((m,)), [(x % m,) for x in xs])


# small sets in Z, Z_m and Z x Z_m at each eps, among them subgroups of
# Z_m, where every d of the subgroup has r(d) = n and stays live, alone and
# with a few points; and at eps 2/5, where its thin floor reaches 1, an
# interval of 170-200 with 1-3 points in a window of 80 far below it: both
# routes are drawn (d = 0 alone, with and without the thin-partner matrix,
# and the scan of the live d)
P_CASES = st.one_of(
    st.tuples(
        st.one_of(
            st.sets(st.integers(-40, 40), min_size=1, max_size=24).map(lambda xs: zset(*xs)),
            st.integers(2, 40).flatmap(
                lambda m: st.sets(st.integers(0, m - 1), min_size=1, max_size=24).map(lambda xs: _cyclic(m, xs))
            ),
            st.integers(2, 9).flatmap(
                lambda m: st.sets(
                    st.tuples(st.integers(-5, 5), st.integers(0, m - 1)), min_size=1, max_size=24
                ).map(lambda xs: AdditiveSet.from_elements(GroupSpec((0, m)), xs))
            ),
            st.tuples(st.integers(1, 6), st.integers(2, 12), st.sets(st.integers(0, 71), max_size=3)).map(
                lambda t: _cyclic(t[0] * t[1], [*range(0, t[0] * t[1], t[0]), *t[2]])
            ),
        ),
        st.sampled_from([F(1, 10), F(1, 4), F(2, 5)]),
    ),
    st.tuples(
        st.tuples(
            st.integers(170, 200), st.integers(-600, -300), st.sets(st.integers(0, 80), min_size=1, max_size=3)
        ).map(lambda t: zset(*range(t[0]), *(t[1] + x for x in t[2]))),
        st.just(F(2, 5)),
    ),
)


@given(case=P_CASES)
@settings(max_examples=100, deadline=None)
def test_extract_p_matches_the_reference_that_scores_every_popular_d(case):
    a, eps = case
    pq = partition_pq(a)
    assume(pq.p_holds(eps))
    report = extract_p(a, pq, eps)
    w = report.witness
    _, expected = branch_p_reference(a, eps)
    assert (w.d_star, w.a_star, w.thin_pairs_in_a_star, report.a_prime) == expected


def test_the_scan_route_reads_its_thin_partners_from_one_relation_build(monkeypatch):
    # at eps 2/5 the tie set and the multiples of 10 in Z_2000 with 1 and 2
    # keep some d != 0 live, and their thin codes number 806 and 798: one
    # membership scan marks the live slices and one relation build over the
    # thin codes gives X.  The multiples of 10 in Z_1000 are a subgroup,
    # every d of it live, with no thin d: no X is built, and no pair is thin
    scans, marked = [], []
    real_relation = Relation.from_difference_set.__func__
    real_members = bsg._slice_members

    def relation_spy(cls, rep, codes):
        scans.append(len(codes))
        return real_relation(cls, rep, codes)

    def members_spy(rep, live):
        marked.append(int(np.count_nonzero(live)))
        return real_members(rep, live)

    monkeypatch.setattr(Relation, "from_difference_set", classmethod(relation_spy))
    monkeypatch.setattr(bsg, "_slice_members", members_spy)
    cases = (
        (TIE, 806, (-2,), 398),
        (_cyclic(2000, [*range(0, 2000, 10), 1, 2]), 798, (10,), 200),
        (_cyclic(1000, range(0, 1000, 10)), 0, (0,), 100),
    )
    for a, thin_d, d_star, star_size in cases:
        scans.clear()
        marked.clear()
        report = extract(a, Params(eps=F(2, 5)))
        w = report.witness
        assert scans == ([thin_d] if thin_d else [])
        assert len(marked) == 1 and marked[0] > 1
        assert (report.case, w.d_star, len(w.a_star)) == ("P", d_star, star_size)
        assert w.thin_pairs_in_a_star == 0 and report.a_prime == w.a_star


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
    # a selection compares by identity, since its index set is an array
    assert s1.index_set.tolist() == s2.index_set.tolist()
    assert {**vars(s1), "index_set": None} == {**vars(s2), "index_set": None}
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
        elems = a.elements
        popular_rows = np.flatnonzero(pq.popular)
        # the default block gathers from the column table; the 169- and
        # 77-code ranges pass 64 cells, so that block searches
        for cells in (_codec.BLOCK_CELLS, 64):
            monkeypatch.setattr(_codec, "BLOCK_CELLS", cells)
            # every popular d live, then every other one, in their order
            for step in (1, 2):
                live = np.zeros_like(pq.popular)
                live[popular_rows[::step]] = True
                kept = pq.p_items[::step]
                m_mat = _slice_members(pq.rep, live)
                assert m_mat.shape == (len(a), len(kept))
                for t, (d, _) in enumerate(kept):
                    # A_d = A intersect (A + d)
                    assert m_mat[:, t].tolist() == [sub(a.spec, x, d) in a.as_set for x in elems], d


class _ColumnDtype(Exception):
    pass


class _StubRep:
    """A rep table of k live codes and one other over a set of n elements.

    Its lookup raises _ColumnDtype with the dtype of the column table it is
    handed, so no n x n block is ever built.
    """

    def __init__(self, n, k):
        self.a_set = range(n)
        self.codes = np.arange(k + 1)
        self.live = np.arange(k + 1) < k

    def __len__(self):
        return len(self.codes)

    def lookup(self, codes, col):
        raise _ColumnDtype(col.dtype)


def _flat_index_dtype(n, k):
    rep = _StubRep(n, k)
    with pytest.raises(_ColumnDtype) as info:
        _slice_members(rep, rep.live)
    return info.value.args[0]


def test_flat_scatter_index_dtype_holds_the_last_cell():
    # the flat index of the last cell of n * (k + 1) cells is n * (k + 1) - 1
    assert _flat_index_dtype(1 << 30, 1) == np.int32  # 2^31 cells
    assert _flat_index_dtype(715827883, 2) == np.int64  # 2^31 + 1 cells


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


_BOTH_BRANCHES = [(F(1, 10), "P"), (F(1, 4), "Q")]


@pytest.mark.parametrize("eps, case", _BOTH_BRANCHES, ids=["P", "Q"])
def test_a_diff_size_past_its_bound_fails_the_checks(eps, case):
    report = extract(gen_random(48, 97, 21), Params(eps=eps))
    assert report.case == case and all(ok for _, ok in report.checks)
    past = replace(report, diff_size=report.diff_bound.numerator // report.diff_bound.denominator + 1)
    failed = {"diff_upper_bound"} | ({"diff_upper_bound_popular"} if case == "P" else set())
    assert {name for name, ok in past.checks if not ok} == failed
    assert {c["name"] for c in past.to_json_dict()["checks"] if not c["pass"]} == failed
    assert past.to_json_dict()["achieved"]["diff_size"] == past.diff_size


@pytest.mark.parametrize("eps, case", _BOTH_BRANCHES, ids=["P", "Q"])
def test_a_replaced_a_prime_moves_its_size_bound_and_check_together(eps, case):
    report = extract(gen_random(48, 97, 21), Params(eps=eps))
    assert report.case == case and report.a_prime_size > 1
    single = replace(report, a_prime=report.a_prime.subset([0]))
    assert single.a_prime_size == 1
    assert single.diff_bound == report.diff_bound / report.a_prime_size
    assert dict(single.checks)["size_lower_bound"] is False
    doc = single.to_json_dict()
    assert doc["achieved"]["a_prime_size"] == 1
    assert doc["bounds"]["diff_bound"] == bsg._frac_str(single.diff_bound)
    assert {c["name"]: c["pass"] for c in doc["checks"]}["size_lower_bound"] is False
