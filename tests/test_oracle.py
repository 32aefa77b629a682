import ast
import copy
import dataclasses
import json
import math
import operator
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    difference_relation,
    forced,
    pure_energy,
    pure_pairs,
    relation_from_index_pairs,
    route_labels,
    scaled,
    select_rational,
    st_failures,
    tv_failures,
    zset,
)

import bsgx.oracle as oracle
from bsgx.additive_stats import energy
from bsgx.bsg import Params, extract
from bsgx.generators import SplitMix64, gen_ap, gen_axis, gen_ball, gen_random
from bsgx.groups import AdditiveSet, GroupSpec, parse_set, serialize_set
from bsgx.numeric_lemma import PrefixSelection
from bsgx.oracle import verify_report_dict
from bsgx.relation_lemma import extract_tv

F = Fraction


def failed_checks(res):
    return tuple(c for c in res.checks if c.status == "fail")


def test_bruteforce_pinned_values():
    for count in (pure_energy, lambda a: energy(a).energy):
        assert count(zset(0, 1)) == 6
        assert count(zset(0, 1, 2)) == 19
        assert count(zset(123)) == 1
        # a Sidon set: r(0) = 4 and twelve differences with one representation
        assert count(zset(0, 1, 3, 7)) == 16 + 12


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
        assert pure_energy(a) == energy(a).energy


def fresh_report(a, eps):
    return extract(a, Params(eps=eps)).to_json_dict()


def test_fresh_reports_verify():
    a = gen_random(48, 97, 21)
    doc = fresh_report(a, F(1, 4))
    res = verify_report_dict(a, doc)
    assert res.ok
    assert not failed_checks(res)
    names = [c.name for c in res.checks]
    assert "energy_matches" in names and "diff_size_matches" in names
    # the JSON form of the result keeps the claimed/actual strings
    as_json = res.to_json_dict()
    assert as_json["status"] == "pass"
    assert all(c["status"] == "pass" for c in as_json["checks"])


def test_tampered_a_prime_fails_size_check():
    a = gen_random(48, 97, 21)
    doc = fresh_report(a, F(1, 4))
    # shrink A' to a single element: the size floor must trip
    lines = doc["a_prime"].splitlines()
    doc["a_prime"] = "\n".join(lines[:3] + [lines[3]]) + "\n"
    doc["achieved"]["a_prime_size"] = 1
    res = verify_report_dict(a, doc)
    assert not res.ok
    assert any(c.name == "size_lower_bound" for c in failed_checks(res))


def test_tampered_energy_fails():
    a = zset(0, 1, 2)
    doc = fresh_report(a, F(1, 5))
    doc["input"]["energy"] = 18
    res = verify_report_dict(a, doc)
    assert any(c.name == "energy_matches" for c in failed_checks(res))


def test_tampered_diff_size_fails():
    a = zset(0, 1, 2)
    doc = fresh_report(a, F(1, 5))
    doc["achieved"]["diff_size"] = 4
    res = verify_report_dict(a, doc)
    assert any(c.name == "diff_size_matches" for c in failed_checks(res))


def test_alien_a_prime_fails_subset_check():
    a = zset(0, 1, 2)
    doc = fresh_report(a, F(1, 5))
    doc["a_prime"] = "aset 1\ndim 1\nmod 0\n0\n1\n5\n"
    res = verify_report_dict(a, doc)
    assert any(c.name == "a_prime_subset" for c in failed_checks(res))


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


def test_verify_report_dict_on_a_library_report():
    a = gen_axis(11, 2)
    rep = extract(a, Params(eps=F(1, 10)))
    res = verify_report_dict(a, rep.to_json_dict())
    assert res.ok
    # P route gets the extra popularity checks
    names = {c.name for c in res.checks}
    assert "d_star_popular" in names
    assert "diff_upper_bound_popular" in names


def test_verify_tv_catches_a_forged_witness():
    base = gen_ap(15)
    r = difference_relation(base, [(d,) for d in range(-3, 4)])
    w = extract_tv(r, F(1, 2))
    # claim the whole base set survived the filter
    forged = dataclasses.replace(w, a_prime=base)
    assert tv_failures(r, w, F(1, 2))[0] == []
    assert tv_failures(r, forged, F(1, 2))[0] == ["witness_nesting", "triple_paths"]


def test_verify_tv_checks_the_center():
    base = gen_ap(15)
    r = difference_relation(base, [(d,) for d in range(-3, 4)])
    w = extract_tv(r, F(1, 2))
    assert w.x_star == (3,)
    forged = dataclasses.replace(w, x_star=(14,))
    # N((14,)) = {11, ..., 14} is not A*
    assert tv_failures(r, forged, F(1, 2))[0] == ["a_star_is_neighbourhood"]
    outside = dataclasses.replace(w, x_star=(1000,))
    assert tv_failures(r, outside, F(1, 2))[0] == ["x_star_in_a", "a_star_is_neighbourhood"]


def test_verify_tv_fails_an_element_outside_the_base():
    base = gen_ap(15)
    r = difference_relation(base, [(d,) for d in range(-3, 4)])
    w = extract_tv(r, F(1, 2))
    stray = AdditiveSet(base.spec, w.a_prime.elements + ((1000,),))
    for forged in (
        dataclasses.replace(w, a_prime=stray),
        dataclasses.replace(w, a_star=AdditiveSet(base.spec, w.a_star.elements + ((1000,),)), a_prime=stray),
    ):
        failed, _, _ = tv_failures(r, forged, F(1, 2))
        # the stray element has no neighbours, so it is joined by no path
        assert {"witness_nesting", "triple_paths"} <= set(failed)


def test_verify_tv_matches_a_loop_recount():
    # 20 rows related to every column and 20 with at most two partners among
    # the first 6 columns, so that A* holds thin pairs
    rng = SplitMix64(31)
    n = 40
    base = gen_ap(n)
    pairs = [(i, j) for i in range(20) for j in range(n)]
    pairs += [(i, rng.below(6)) for i in range(20, n) for _ in range(2)]
    r = relation_from_index_pairs(base, pairs)
    xi = F(1)
    w = extract_tv(r, xi)
    # common right-neighbours from sets, then paths as sums over b
    right = [set(np.flatnonzero(row).tolist()) for row in r.matrix]
    common = [[len(u & v) for v in right] for u in right]
    at = {a: i for i, a in enumerate(base.elements)}
    star = [at[a] for a in w.a_star.elements]
    prime = [at[a] for a in w.a_prime.elements]
    thin = r.delta**2 * xi**2 * n / 8
    omega = sum(1 for i in star for j in star if common[i][j] <= thin)
    low = min(sum(common[i][b] * common[b][j] for b in range(n)) for i in prime for j in prime)
    failed, thin_pairs, fewest = tv_failures(r, w, xi)
    assert failed == [] and w.omega_card_in_astar == thin_pairs == omega > 0
    assert fewest == low
    forged = dataclasses.replace(w, omega_card_in_astar=omega + 7)
    assert tv_failures(r, forged, xi)[0] == ["thin_pairs_in_a_star"]


def test_verify_st_rejects_wrong_selection():
    alpha = F(1, 2)
    coeffs, rho, good = select_rational(F(1), (1, F(1, 2), F(1, 3), F(1, 4)), alpha)
    assert st_failures(coeffs, rho, alpha, good)[0] == []
    bad = PrefixSelection(
        weight_count=good.weight_count,
        chosen_i=good.chosen_i,
        index_set=good.index_set,
        certified_coeff=good.certified_coeff + 1,
        window_lo=good.window_lo,
    )
    assert st_failures(coeffs, rho, alpha, bad)[0] == ["sum_matches"]
    shifted = dataclasses.replace(good, window_lo=good.window_lo + 1)
    assert st_failures(coeffs, rho, alpha, shifted)[0] == ["window_matches"]


def test_verify_st_fails_an_index_outside_the_weights():
    alpha = F(1, 2)
    coeffs, rho, good = select_rational(F(1), (1, F(1, 2), F(1, 3), F(1, 4)), alpha)
    index_set = good.index_set.tolist()
    for forged in (index_set[:-1] + [len(coeffs)], [-1] + index_set[1:]):
        forgery = dataclasses.replace(good, index_set=np.array(forged))
        failed, _ = st_failures(coeffs, rho, alpha, forgery)
        assert {"index_set_matches", "sum_matches"} <= set(failed)


def test_verify_st_fails_a_tie_swapped_index_set():
    # the window holds 5 of the 8 weights, and indices 2 and 4 tie in it:
    # taking 4 before 2 keeps the sum but breaks the stable order
    alpha = F(3, 5)
    weights = (F(1, 4), 1, F(1, 2), F(1, 9), F(1, 2), F(1, 3), F(1, 20), F(1, 100))
    coeffs, rho, good = select_rational(F(1), weights, alpha)
    assert good.index_set.tolist() == [1, 2] and st_failures(coeffs, rho, alpha, good) == ([], (2, 5))
    swapped = dataclasses.replace(good, index_set=np.array([1, 4]))
    assert st_failures(coeffs, rho, alpha, swapped)[0] == ["index_set_matches"]


def test_results_serialize():
    a = zset(0, 1)
    doc = fresh_report(a, F(1, 4))
    res = verify_report_dict(a, doc)
    out = json.dumps(res.to_json_dict())
    assert '"ok": true' in out


# ----- the verifier's histograms against their definitions ----------------

def seeded_set(spec, n, draw, seed):
    rng = SplitMix64(seed)
    elems = set()
    while len(elems) < n:
        elems.add(tuple(draw(rng, m) for m in spec.moduli))
    return AdditiveSet.from_elements(spec, elems)


def small_coordinate(rng, m):
    return rng.below(m) if m else rng.below(201) - 100


def huge_free_coordinate(rng, m):
    """Free coordinates near +-2^62 and beyond 2^64: the Python-int column."""
    if m:
        return rng.below(m)
    return (rng.below(2) * 2 - 1) * ((1 << (62 + rng.below(4))) + rng.below(1000))


def wide_coordinate(rng, m):
    """A residue of any size, or a free coordinate spanning just under 2^62."""
    if m:
        return ((rng.next_u64() << 64) | rng.next_u64()) % m
    return rng.below(1 << 61) - (1 << 60)


def differential_sets():
    bases = [
        ("Z", seeded_set(GroupSpec((0,)), 40, small_coordinate, 1)),
        ("Z_1021", gen_random(45, 1021, 2)),
        ("ZxZ_13", seeded_set(GroupSpec((0, 13)), 35, small_coordinate, 4)),
        ("(Z_5)^3", seeded_set(GroupSpec((5, 5, 5)), 30, small_coordinate, 5)),
    ]
    sets = []
    for label, a in bases:
        sets += [(label, a), (f"{label}*2^53", scaled(a, 1 << 53))]
    sets += [
        # uint64 columns whose sums come near 2^64
        ("Z_(2^63-25)", seeded_set(GroupSpec(((1 << 63) - 25,)), 30, wide_coordinate, 8)),
        ("Z wide", seeded_set(GroupSpec((0,)), 30, wide_coordinate, 9)),
        # Python-int columns
        ("Z_(2^64+13)", seeded_set(GroupSpec(((1 << 64) + 13,)), 30, wide_coordinate, 10)),
        ("Z huge", seeded_set(GroupSpec((0,)), 25, huge_free_coordinate, 6)),
        ("ZxZ_7 huge", seeded_set(GroupSpec((0, 7)), 25, huge_free_coordinate, 7)),
        # keys whose radix overflows int64 and gets ranked
        ("(Z_(2^40+15))^3", seeded_set(GroupSpec(((1 << 40) + 15,) * 3), 25, wide_coordinate, 11)),
        ("Z_7xZ_(2^63-25)", seeded_set(GroupSpec((7, (1 << 63) - 25)), 25, wide_coordinate, 12)),
        ("Z single", AdditiveSet.from_elements(GroupSpec((0,)), [(-(1 << 70),)])),
    ]
    return sets


DIFFERENTIAL_SETS = differential_sets()
# the sets whose pass ranks its key: a Python-int column, or a radix past 2^63
RANKED = {"Z_(2^64+13)", "Z huge", "ZxZ_7 huge", "(Z_(2^40+15))^3", "Z_7xZ_(2^63-25)"}


def probe_differences(a, diffs):
    """Every other difference of a, then elements of the group that are not differences."""
    rng = SplitMix64(len(a))
    present = sorted(diffs)[::2]
    absent = []
    for _ in range(10):
        d = a.spec.reduce(tuple(
            wide_coordinate(rng, m) if m else rng.below(10**6) - 5 * 10**5 for m in a.spec.moduli
        ))
        absent.append(d)
    # next to a difference: off the gcd lattice of a scaled copy
    absent += [a.spec.reduce(tuple(c + 1 for c in d)) for d in present[:5]]
    # just past the free span, and far past it
    span = [max(e[k] for e in a) - min(e[k] for e in a) for k in range(a.spec.dim)]
    absent.append(a.spec.reduce(tuple(s + 1 for s in span)))
    absent.append(a.spec.reduce(tuple(-(s + 1) << 70 for s in span)))
    return present + absent


def check_histograms(a, ranked=False):
    """The oracle's recounts equal the definitions, or report over budget.

    A pass costs a cell per pair and per query, five times that when ranked.
    """
    cost = oracle._RANKED_CELL_COST if ranked else 1
    sums = Counter(pure_pairs(a, operator.add))
    diffs = Counter(pure_pairs(a, operator.sub))
    queries = probe_differences(a, diffs)
    coords = oracle._coordinates(a)
    sum_hist = oracle._histogram(coords, "sum", "E")
    hist = oracle._histogram(coords, "diff", "r(d)", queries)
    diff_hist = oracle._histogram(coords, "diff", "|A-A|")
    fits = len(a) ** 2 * cost <= oracle._BUDGET_CELLS
    if fits:
        assert int(np.dot(sum_hist.counts, sum_hist.counts)) == sum(c * c for c in sums.values())
        assert len(diff_hist.counts) == len(diffs)
    else:
        assert "over budget" in sum_hist.reason and "over budget" in diff_hist.reason
    cells = (len(a) ** 2 + len(queries)) * cost
    if cells <= oracle._BUDGET_CELLS:
        assert sorted(hist.counts.tolist()) == sorted(diffs.values())
        assert hist.query_counts.tolist() == [diffs.get(d, 0) for d in queries]
    else:
        assert f"{cells} cells" in hist.reason
    return fits


@pytest.mark.parametrize("label, a", DIFFERENTIAL_SETS, ids=[s[0] for s in DIFFERENTIAL_SETS])
def test_histograms_match_their_definitions(label, a):
    assert check_histograms(a, label in RANKED)


def test_histograms_skip_over_the_budget(monkeypatch):
    sizes = sorted(len(a) for _, a in DIFFERENTIAL_SETS)
    monkeypatch.setattr(oracle, "_BUDGET_CELLS", sizes[len(sizes) // 2] ** 2)
    fits = [check_histograms(a, label in RANKED) for label, a in DIFFERENTIAL_SETS]
    assert any(fits) and not all(fits)
    smallest = min((a for _, a in DIFFERENTIAL_SETS), key=len)
    largest = max((a for _, a in DIFFERENTIAL_SETS), key=len)
    assert check_histograms(smallest) and not check_histograms(largest)


def test_a_ranked_pass_is_charged_more(monkeypatch):
    n = 25
    plain = seeded_set(GroupSpec((0,)), n, wide_coordinate, 13)
    ranked = seeded_set(GroupSpec((0,)), n, huge_free_coordinate, 13)
    monkeypatch.setattr(oracle, "_BUDGET_CELLS", n * n * (oracle._RANKED_CELL_COST - 1))
    assert check_histograms(plain) and not check_histograms(ranked, ranked=True)
    monkeypatch.setattr(oracle, "_BUDGET_CELLS", n * n * oracle._RANKED_CELL_COST)
    assert check_histograms(ranked, ranked=True)


def near_top(spec, n, seed):
    """n + 2 rows: each cyclic coordinate takes m - 1, m - 2, values just below
    them and values below 50, each free one 0, 1 and values below 1000.

    A sum of two values near m - 1 that wrapped past 2^32 would land among
    the sums of the small values.
    """
    rng = SplitMix64(seed)
    rows = [tuple(m - 1 if m else 0 for m in spec.moduli), tuple(m - 2 if m else 1 for m in spec.moduli)]
    for i in range(n):
        rows.append(tuple(
            (m - 1 - rng.below(50) if i % 2 else rng.below(50)) if m else rng.below(1000)
            for m in spec.moduli
        ))
    return rows


# (label, moduli, free span or None, radix product); the narrow route takes
# a product of at most 2^31
WIDTH_EDGES = [
    ("Z_(2^31-1)", (2**31 - 1,), None, 2**31),
    ("Z_(2^31)", (2**31,), None, 2**31 + 1),
    ("Z_(2^31+11)", (2**31 + 11,), None, 2**31 + 12),
    ("Z span 2^30-1", (0,), 2**30 - 1, 2**31),
    ("Z span 2^30", (0,), 2**30, 2**31 + 2),
    ("ZxZ_(2^15-1)", (0, 2**15 - 1), 2**15 - 1, 2**31),
    ("ZxZ_(2^15)", (0, 2**15), 2**15 - 1, 2**31 + 2**16),
]


@pytest.mark.parametrize(
    "label, moduli, span, product", WIDTH_EDGES, ids=[e[0] for e in WIDTH_EDGES]
)
def test_key_width_at_the_boundary(monkeypatch, label, moduli, span, product):
    spec = GroupSpec(moduli)
    rows = near_top(spec, 30, len(label))
    if span is not None:
        # the free coordinate runs over exactly [0, span], with gcd 1
        rows.append(tuple(span if m == 0 else r for m, r in zip(moduli, rows[0])))
    a = AdditiveSet.from_elements(spec, rows)
    coords = oracle._coordinates(a)
    assert math.prod(c.radix for c in coords) == product
    if span is None:
        # the unreduced sums reach 2(m - 1) = 2(top - 1)
        assert max(a.elements)[0] == moduli[0] - 1
    dtypes = []
    keys = oracle._keys
    monkeypatch.setattr(oracle, "_keys", lambda *args: dtypes.append(args[-1]) or keys(*args))
    assert check_histograms(a)
    narrow = product <= 2**31
    assert set(dtypes) == {np.uint32 if narrow else np.uint64}


@pytest.mark.parametrize("label, a", DIFFERENTIAL_SETS, ids=[s[0] for s in DIFFERENTIAL_SETS])
def test_the_wide_route_counts_like_the_narrow_one(label, a):
    diffs = Counter(pure_pairs(a, operator.sub))
    queries = probe_differences(a, diffs)
    coords = oracle._coordinates(a)

    def passes():
        sums = oracle._histogram(coords, "sum", "E")
        hist = oracle._histogram(coords, "diff", "r(d)", queries)
        return sums.counts.tolist(), hist.counts.tolist(), hist.query_counts.tolist()

    narrow = passes()
    with forced("uint64 keys"):
        assert passes() == narrow


def test_a_prime_of_n_elements_not_all_in_a_gets_its_own_pass():
    a = gen_ap(60, 1, 1)
    doc = fresh_report(a, F(1, 4))
    forged = zset(*(list(range(1, 60)) + [1000]))
    assert len(forged) == len(a)
    doc["a_prime"] = serialize_set(forged).decode()
    with route_labels() as labels:
        records = {c.name: c for c in verify_report_dict(a, doc).checks}
    assert "pass:|A'-A'|" in labels
    assert records["a_prime_subset"].status == "fail"
    assert records["diff_size_matches"].actual == str(len(set(pure_pairs(forged, operator.sub))))


@pytest.mark.parametrize("label, a", DIFFERENTIAL_SETS, ids=[s[0] for s in DIFFERENTIAL_SETS])
def test_reports_on_every_column_kind_pass_every_check(label, a):
    for eps in (F(1, 10), F(1, 4), F(2, 5)):
        res = verify_report_dict(a, fresh_report(a, eps))
        assert res.status == "pass", (eps, [c.name for c in res.checks if c.status != "pass"])


# ----- budget, version and the fields each check covers --------------------

def test_over_budget_checks_are_skipped_not_passed(monkeypatch):
    a = gen_random(48, 97, 21)
    doc = fresh_report(a, F(1, 4))
    monkeypatch.setattr(oracle, "_BUDGET_CELLS", 4)
    res = verify_report_dict(a, doc)
    skipped = [c for c in res.checks if c.status == "skipped"]
    assert res.status == "skipped" and not failed_checks(res)
    assert {c.name for c in skipped} >= {
        "energy_matches", "diff_size_matches", "delta_matches", "q_prime_in_differences"
    }
    assert all("cells > 4" in c.claimed for c in skipped)
    # checks that need no pass still run
    assert {"input_size_matches", "a_prime_subset", "a_star_size_matches"} <= {
        c.name for c in res.checks if c.status == "pass"
    }
    # a failure still wins over a skip
    doc["input"]["n"] += 1
    assert verify_report_dict(a, doc).status == "fail"


def test_a_q_prime_element_outside_the_differences_fails():
    # no difference of two axis vectors of (Z_23)^3 has three nonzero
    # coordinates, so d = (1, 1, 1) has r(d) = 0: it is unpopular and adds
    # no pair to delta, and only the check that r(d) >= 1 on Q' finds it
    a = gen_axis(23, 3)
    doc = fresh_report(a, F(2, 5))
    assert doc["case"] == "Q" and verify_report_dict(a, doc).status == "pass"
    q_prime = parse_set(doc["witness"]["q_prime"])
    forged = AdditiveSet.from_elements(q_prime.spec, [*q_prime.elements, (1, 1, 1)])
    doc["witness"]["q_prime"] = serialize_set(forged).decode("utf-8")
    doc["witness"]["q_prime_size"] += 1
    doc["witness"]["selected_count"] += 1
    res = verify_report_dict(a, doc)
    assert [c.name for c in failed_checks(res)] == ["q_prime_in_differences"]
    names = [c.name for c in res.checks]
    assert names.index("q_prime_in_differences") == names.index("q_prime_unpopular") + 1
    assert failed_checks(res)[0].claimed == "r(d) >= 1 for d in Q'"


def _leaves(doc, path=()):
    """The path to every leaf of a report: lists of dicts are walked, other lists are leaves."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, dict) or (isinstance(value, list) and value and isinstance(value[0], dict)):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


def _retyped(value):
    """value as another JSON type: a bool as "true", an int as a string, a string as 7, a list as "x"."""
    if isinstance(value, bool):
        return "true"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return 7
    assert isinstance(value, list), value
    return "x"


@pytest.mark.parametrize("eps, case", [("1/10", "P"), ("1/4", "Q")])
def test_verify_reads_every_field_of_a_report(eps, case):
    a = gen_random(48, 97, 21)
    doc = fresh_report(a, F(eps))
    assert doc["case"] == case
    paths = list(_leaves(doc))
    assert ("params", "run_both") in paths and ("witness", "thin_pairs_in_a_star") in paths
    for path in paths:
        # the extractor's own check records, which verify recomputes rather
        # than reads; report v2 drops them
        if path[0] == "checks":
            continue
        edited = copy.deepcopy(doc)
        parent = edited
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = _retyped(parent[path[-1]])
        try:
            status = verify_report_dict(a, edited).status
        except (ValueError, KeyError, TypeError):
            continue
        assert status == "fail", path


def test_unknown_version_is_rejected():
    a = zset(0, 1, 2)
    doc = fresh_report(a, F(1, 5))
    doc["version"] = "9.9.9"
    with pytest.raises(ValueError, match="version"):
        verify_report_dict(a, doc)


def _bump(value):
    """value + 1, for an int or a "p/q" string."""
    if isinstance(value, int):
        return value + 1
    bumped = F(value) + 1
    return f"{bumped.numerator}/{bumped.denominator}"


# (eps, branch, path into the report, tampered value or None to bump, check)
TAMPERED_FIELDS = [
    ("1/10", "P", ("params", "eps"), "1/4", "branch_hypothesis"),
    ("1/4", "Q", ("params", "eps"), "1/1000", "branch_hypothesis"),
    ("1/4", "Q", ("witness", "q_size"), None, "q_size_matches"),
    ("1/4", "Q", ("witness", "a_star_size"), None, "a_star_size_matches"),
    ("1/10", "P", ("bounds", "diff_bound_p"), None, "diff_bound_p_recorded"),
    ("1/10", "P", ("witness", "a_star_size"), None, "a_star_size_matches"),
]


@pytest.mark.parametrize("eps, case, path, value, check", TAMPERED_FIELDS)
def test_tampered_field_fails_its_check(eps, case, path, value, check):
    a = gen_random(48, 97, 21)
    doc = fresh_report(a, F(eps))
    assert doc["case"] == case
    assert verify_report_dict(a, doc).status == "pass"
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = _bump(parent[path[-1]]) if value is None else value
    res = verify_report_dict(a, doc)
    assert check in {c.name for c in failed_checks(res)}, [c.name for c in failed_checks(res)]


# (eps, branch, path into the report, check) of integer fields
RETYPED_FIELDS = [
    ("1/4", "Q", ("input", "n"), "input_size_matches"),
    ("1/4", "Q", ("input", "energy"), "energy_matches"),
    ("1/4", "Q", ("achieved", "a_prime_size"), "a_prime_size_matches"),
    ("1/4", "Q", ("achieved", "diff_size"), "diff_size_matches"),
    ("1/4", "Q", ("witness", "q_size"), "q_size_matches"),
    ("1/4", "Q", ("witness", "q_prime_size"), "q_prime_size_matches"),
    ("1/4", "Q", ("witness", "a_star_size"), "a_star_size_matches"),
    ("1/10", "P", ("witness", "a_star_size"), "a_star_size_matches"),
    ("1/10", "P", ("witness", "thin_threshold"), "thin_threshold_matches"),
]


@pytest.mark.parametrize(
    "eps, case, path, check", RETYPED_FIELDS, ids=[f"{c}-{'.'.join(p)}" for _, c, p, _ in RETYPED_FIELDS]
)
def test_an_integer_sent_as_a_float_fails_its_check(eps, case, path, check):
    a = gen_random(48, 97, 21)
    doc = fresh_report(a, F(eps))
    assert doc["case"] == case
    section, field = path
    doc[section][field] = float(doc[section][field])
    res = verify_report_dict(a, doc)
    # Python finds 63.0 == 63; the check must not
    assert [(c.name, c.claimed) for c in failed_checks(res)] == [(check, str(doc[section][field]))]


def test_float_and_bool_counts_fail():
    a = gen_random(63, 127, 7)
    doc = fresh_report(a, F(1, 4))
    doc["input"]["n"] = 63.0
    doc["input"]["energy"] = 125903.0
    doc["witness"]["q_size"] = 126.0
    res = verify_report_dict(a, doc)
    assert res.status == "fail"
    assert [(c.name, c.claimed) for c in failed_checks(res)] == [
        ("input_size_matches", "63.0"),
        ("energy_matches", "125903.0"),
        ("q_size_matches", "126.0"),
    ]
    # a singleton's counts are all 1, which True also equals
    one = zset(7)
    doc = fresh_report(one, F(1, 4))
    doc["input"]["n"] = doc["input"]["energy"] = doc["achieved"]["diff_size"] = True
    res = verify_report_dict(one, doc)
    assert [(c.name, c.claimed) for c in failed_checks(res)] == [
        ("input_size_matches", "True"),
        ("energy_matches", "True"),
        ("diff_size_matches", "True"),
    ]


def test_the_oracle_imports_nothing_of_the_package_but_groups():
    # the oracle shares no code with the main path: of bsgx it imports the
    # set parser alone
    imported = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("bsgx")):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names if alias.name.startswith("bsgx")}
    assert imported == {".groups"}
