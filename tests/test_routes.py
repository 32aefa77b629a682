"""Every row of conftest.ROUTES against the default route.

On the fixed sets below and on drawn ones, at eps 1/10, 1/4 and 2/5, a run
on any row writes the default route's report bytes and gets its verify
records, all passing; on the own-A'-pass row exactly the records that read
the r(d) pass are skipped instead.  E and |A - A| equal conftest.pure_*.
Each row's marker must show its route running on a fixed set where the
default route does not take it, so no row passes for want of running.  The
default runs of a fixed set must take its branch at each eps and the
default routes it is listed with.
"""

import json
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_BASES, ROUTES, cyclic, forced, pure_diff_size, pure_energy, route_labels

import bsgx.oracle as oracle
from bsgx import AdditiveSet, GroupSpec, Params, extract, gen_axis, gen_random
from bsgx.additive_stats import energy
from bsgx.generators import SplitMix64
from bsgx.oracle import verify_report_dict

EPS = (F(1, 10), F(1, 4), F(2, 5))

# the verify records that read the r(d) pass, by branch
NEEDS_R = {"P": {"branch_hypothesis", "d_star_popular", "a_star_size_matches"}, "Q": {
    "branch_hypothesis", "q_size_matches", "q_prime_unpopular", "q_prime_in_differences",
    "delta_matches", "delta_floor", "a_prime_size_floor",
}}


# label: (set, its branch at each eps, labels of default routes it must take)
FIXED = {
    **{label: (build, cases, set()) for (label, build), cases in zip(
        GOLDEN_BASES.items(), "PPP PPP PPP PPQ PPQ PQQ PPP PPP PPP PPP".split()
    )},
    "random:40,79,12": (lambda: gen_random(40, 79, 12), "PQQ", set()),
    "axis:101,3": (lambda: gen_axis(101, 3), "PQQ", {"codes:int32"}),
    # radix 2^31 + 12 passes the uint32 keys' 2^31; Z_2147483647 has radix
    # 2^31, and a sum in it reaches 2^32 - 4
    "random:300,2147483659,7": (lambda: gen_random(300, 2147483659, 7), "PPP", {"codes:int64", "keys:uint64"}),
    "random:300,2147483647,7": (lambda: gen_random(300, 2147483647, 7), "PPP", {"codes:int64", "keys:uint32"}),
    # 131^3 codes pass the default block
    "axis:131,3": (lambda: gen_axis(131, 3), "QQQ", {"codes:int32", "lookup:two levels"}),
    # free and cyclic coordinates: the pair codes fold in the lows and wrap a
    # cyclic digit together
    "520 draws in Z_1021xZ": (lambda: AdditiveSet.from_elements(GroupSpec((1021, 0)), [
        (r.below(1021), r.below(4) - 2) for r in [SplitMix64(2026)] for _ in range(520)
    ]), "QQQ", set()),
    # a subgroup: every d in it stays live, and the slice scan runs over all
    "10Z_1000": (lambda: cyclic(1000, range(0, 1000, 10)), "PPP", {"lookup:one level"}),
}


def run(a, route, eps=None, report=None):
    """On the route, the report JSON of a at eps, or the verify records of the
    report when it is given, and the labels of the routes that ran."""
    with forced(route, a), route_labels() as labels:
        if report is None:
            return extract(a, Params(eps=eps)).to_json(), labels
        return verify_report_dict(a, json.loads(report)).checks, labels


def counts(a, route=None):
    """E and |A - A| of a, counted on the route."""
    with forced(route, a):
        report = energy(a)
    return report.energy, report.diff_size


def default_runs(a):
    """E and |A - A| of a by conftest.pure_*, and its (report JSON, verify
    records, route labels) at each eps, on the default route."""
    pure, runs = (pure_energy(a), pure_diff_size(a)), []
    assert counts(a) == pure
    for eps in EPS:
        report, labels = run(a, None, eps)
        records, more = run(a, None, report=report)
        assert {c.status for c in records} == {"pass"}, eps
        runs.append((report, records, labels | more))
    return pure, runs


@lru_cache(maxsize=None)
def fixed(label):
    """A fixed set and its default_runs, which take its branches and routes."""
    build, cases, reached = FIXED[label]
    a = build()
    pure, runs = default_runs(a)
    assert "".join(json.loads(report)["case"] for report, _, _ in runs) == cases, label
    assert reached <= set().union(*(labels for _, _, labels in runs)), label
    return a, pure, runs


def check_route(route, a, pure, defaults):
    """Check the runs of a on the route against the default runs; the eps where
    its marker showed and the default's did not.  An oracle row verifies the
    default report and any other row extracts: the oracle imports nothing of
    the package but its set parser, so the other half is the default's."""
    oracle_row = ROUTES[route].module is oracle
    assert oracle_row or counts(a, route) == pure, route
    fired = []
    for eps, (report, records, labels) in zip(EPS, defaults):
        if oracle_row:
            got, (got_records, got_labels) = report, run(a, route, report=report)
        else:
            (got, got_labels), got_records = run(a, route, eps), records
        assert got == report, (route, eps)
        if route == "own A' pass":
            skipped = {c.name for c in got_records if c.status == "skipped"}
            assert skipped == NEEDS_R[json.loads(report)["case"]], eps
            got_records, records = ([c for c in r if c.name not in skipped] for r in (got_records, records))
        assert got_records == records, (route, eps)
        if ROUTES[route].marker in got_labels - labels:
            fired.append(eps)
    return fired


@pytest.mark.parametrize("route", list(ROUTES))
def test_every_route_writes_the_default_bytes_on_the_fixed_sets(route):
    assert sum([check_route(route, *fixed(label)) for label in FIXED], [])


@st.composite
def drawn_sets(draw):
    """Up to 20 elements of Z, Z_m, Z x Z_m or Z^2, or a subgroup of Z_m and up to three more."""
    kind = draw(st.sampled_from(["Z", "Z_m", "ZxZ_m", "Z^2", "subgroup"]))
    if kind == "subgroup":
        m, step = draw(st.sampled_from([(24, 2), (24, 3), (24, 8), (1000, 25), (1000, 40), (1000, 125)]))
        return cyclic(m, [*range(0, m, step), *draw(st.lists(st.integers(0, m - 1), max_size=3))])
    m = draw(st.sampled_from([7, 24, 101, 1000]))
    span = draw(st.sampled_from([10, 1000, 10**6]))
    moduli = {"Z": (0,), "Z_m": (m,), "ZxZ_m": (0, m), "Z^2": (0, 0)}[kind]
    coordinates = [st.integers(0, m - 1) if q else st.integers(-span, span) for q in moduli]
    return AdditiveSet.from_elements(GroupSpec(moduli), draw(st.lists(st.tuples(*coordinates), min_size=1, max_size=20)))


@given(drawn_sets())
@settings(max_examples=30, deadline=None)
def test_every_route_writes_the_default_bytes_on_drawn_sets(a):
    pure, defaults = default_runs(a)
    for route in ROUTES:
        check_route(route, a, pure, defaults)
