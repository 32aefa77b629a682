import json
from fractions import Fraction

import pytest

from conftest import difference_relation, relation_from_index_pairs

from bsgx.additive_stats import energy
from bsgx.bsg import Params, extract
from bsgx.generators import SplitMix64, gen_ap, gen_axis, gen_ball, gen_random
from bsgx.groups import AdditiveSet, GroupSpec
from bsgx.numeric_lemma import PrefixSelection, ScaledReal, WeightVector
from bsgx.oracle import (
    energy_bruteforce,
    verify_extraction,
    verify_report_dict,
    verify_st,
    verify_tv_property,
)
from bsgx.relation_lemma import extract_tv

F = Fraction
Z = GroupSpec((0,))


def zset(*vals):
    return AdditiveSet.from_elements(Z, [(v,) for v in vals])


def test_bruteforce_pinned_values():
    assert energy_bruteforce(zset(0, 1)) == 6
    assert energy_bruteforce(zset(0, 1, 2)) == 19
    assert energy_bruteforce(zset(123)) == 1
    # a Sidon set: r(0) = 4 and twelve differences with one representation
    assert energy_bruteforce(zset(0, 1, 3, 7)) == 16 + 12


def test_bruteforce_guard():
    ok = gen_ap(200)
    assert energy_bruteforce(ok) > 0
    with pytest.raises(ValueError):
        energy_bruteforce(gen_ap(201))


def test_bruteforce_matches_fast_path_across_families():
    rng = SplitMix64(99)
    sets = [
        gen_ap(17, 4, 3),
        gen_axis(7, 3),
        gen_ball(2, 8),
        gen_random(35, 90, 1),
        AdditiveSet.from_elements(
            GroupSpec((4, 9)), [(rng.below(4), rng.below(9)) for _ in range(14)]
        ),
    ]
    for a in sets:
        assert energy_bruteforce(a) == energy(a).energy


def fresh_report(a, eps):
    return extract(a, Params(eps=eps)).to_json_dict()


def test_fresh_reports_verify():
    a = gen_random(48, 97, 21)
    doc = fresh_report(a, F(1, 4))
    res = verify_report_dict(a, doc)
    assert res.ok
    assert not res.failed
    names = [c.name for c in res.checks]
    assert "energy_matches" in names and "diff_size_matches" in names
    # the JSON form of the result keeps the claimed/actual strings
    as_json = res.to_json_dict()
    assert all(c["status"] in ("pass", "skipped") for c in as_json["checks"])


def test_tampered_a_prime_fails_size_check():
    a = gen_random(48, 97, 21)
    doc = fresh_report(a, F(1, 4))
    # shrink A' to a single element: the size floor must trip
    lines = doc["a_prime"].splitlines()
    doc["a_prime"] = "\n".join(lines[:3] + [lines[3]]) + "\n"
    doc["achieved"]["a_prime_size"] = 1
    res = verify_report_dict(a, doc)
    assert not res.ok
    assert any(c.name == "size_lower_bound" for c in res.failed)


def test_tampered_energy_fails():
    a = zset(0, 1, 2)
    doc = fresh_report(a, F(1, 5))
    doc["input"]["energy"] = 18
    res = verify_report_dict(a, doc)
    assert any(c.name == "energy_matches" for c in res.failed)


def test_tampered_diff_size_fails():
    a = zset(0, 1, 2)
    doc = fresh_report(a, F(1, 5))
    doc["achieved"]["diff_size"] = 4
    res = verify_report_dict(a, doc)
    assert any(c.name == "diff_size_matches" for c in res.failed)


def test_alien_a_prime_fails_subset_check():
    a = zset(0, 1, 2)
    doc = fresh_report(a, F(1, 5))
    doc["a_prime"] = "aset 1\ndim 1\nmod 0\n0\n1\n5\n"
    res = verify_report_dict(a, doc)
    assert any(c.name == "a_prime_subset" for c in res.failed)


def test_report_for_wrong_group_is_rejected():
    a = zset(0, 1, 2)
    doc = fresh_report(a, F(1, 5))
    doc["a_prime"] = "aset 1\ndim 1\nmod 7\n0\n1\n2\n"
    with pytest.raises(ValueError):
        verify_report_dict(a, doc)


def test_malformed_report_raises():
    a = zset(0, 1, 2)
    doc = fresh_report(a, F(1, 5))
    del doc["achieved"]
    with pytest.raises(KeyError):
        verify_report_dict(a, doc)


def test_verify_extraction_object_entrypoint():
    a = gen_axis(11, 2)
    rep = extract(a, Params(eps=F(1, 10)))
    res = verify_extraction(a, rep)
    assert res.ok
    # P route gets the extra popularity checks
    names = {c.name for c in res.checks}
    assert "d_star_popular" in names
    assert "diff_upper_bound_popular" in names


def test_verify_tv_skips_above_the_guard():
    base = gen_ap(61)
    n = len(base)
    r = relation_from_index_pairs(base, [(i, j) for i in range(n) for j in range(n)])
    w = extract_tv(r, F(1, 2))
    res = verify_tv_property(r, w, F(1, 2))
    assert res.ok  # skipped does not fail
    assert [c.status for c in res.checks] == ["skipped"]


def test_verify_tv_catches_a_forged_witness():
    base = gen_ap(15)
    r = difference_relation(base, [(d,) for d in range(-3, 4)])
    w = extract_tv(r, F(1, 2))
    forged = type(w)(
        x_star=w.x_star,
        a_star=w.a_star,
        a_prime=base,  # claim the whole base set survived the filter
        omega_card_in_astar=w.omega_card_in_astar,
        triple_lower_bound=w.triple_lower_bound,
        delta=w.delta,
        xi=w.xi,
    )
    genuine = verify_tv_property(r, w, F(1, 2))
    assert genuine.ok
    res = verify_tv_property(r, forged, F(1, 2))
    assert not res.ok


def test_verify_st_rejects_wrong_selection():
    w = WeightVector(rho=F(1), coeffs=(1, F(1, 2), F(1, 3), F(1, 4)))
    from bsgx.numeric_lemma import select_index_set

    good = select_index_set(w, F(1, 2))
    assert verify_st(w, F(1, 2), good).ok
    bad = PrefixSelection(
        order=good.order,
        chosen_i=good.chosen_i,
        index_set=good.index_set,
        certified_sum=ScaledReal(good.certified_sum.coeff + 1, w.rho),
        window_lo=good.window_lo,
        window_hi=good.window_hi,
    )
    res = verify_st(w, F(1, 2), bad)
    assert any(c.name == "sum_matches" for c in res.failed)

    shuffled = PrefixSelection(
        order=tuple(reversed(good.order)),
        chosen_i=good.chosen_i,
        index_set=good.index_set,
        certified_sum=good.certified_sum,
        window_lo=good.window_lo,
        window_hi=good.window_hi,
    )
    res = verify_st(w, F(1, 2), shuffled)
    assert not res.ok


def test_results_serialize():
    a = zset(0, 1)
    doc = fresh_report(a, F(1, 4))
    res = verify_report_dict(a, doc)
    out = json.dumps(res.to_json_dict())
    assert '"ok": true' in out
