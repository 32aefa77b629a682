"""End-to-end checks for the package's contract, one test per guarantee.

Each test appends a one-line PASS/FAIL verdict to the summary block that
conftest.py prints at the end of the run, so a plain ``pytest -v`` shows the
outcome of every top-level check without -s.

Every inequality asserted here is evaluated in exact integer/rational
arithmetic, and every quantity fed into an inequality is recomputed by a
route independent of the library's fast paths: energies by dict-of-sums
counting, difference sets by set comprehensions over element pairs, and on
the axis sets of the fixture suite, whose n^2 pairs those walks cannot
afford, by set arithmetic in Z_g on each axis.  The library's own numbers
must agree with the recomputed ones before any bound is checked.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Tuple

import numpy as np
from conftest import (
    ACCEPTANCE_LINES,
    difference_relation,
    pure_diff_size,
    pure_energy,
    relation_from_index_pairs,
    st_failures,
    tv_failures,
    weight_vector,
)

from bsgx.bsg import ExtractionReport, Params, extract
from bsgx.cli import main as cli_main
from bsgx.generators import (
    SplitMix64,
    gen_ap,
    gen_axis,
    gen_ball,
    gen_random,
    sample_subset,
)
from bsgx.groups import AdditiveSet, GroupSpec
from bsgx.numeric_lemma import select_index_set
from bsgx.oracle import verify_extraction
from bsgx.relation_lemma import extract_tv
from bsgx.additive_stats import energy

F = Fraction
EPS_GRID = (F(1, 10), F(1, 4), F(2, 5))


@contextmanager
def verdict(tag, description):
    t0 = time.time()
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(
            f"[{tag}] {description}: FAIL ({time.time() - t0:.1f}s)"
        )
        raise
    ACCEPTANCE_LINES.append(
        f"[{tag}] {description}: PASS ({time.time() - t0:.1f}s)"
    )


def check_theorem_bounds(n, e, eps, m, diff):
    """Both size forms and the K^4 doubling bound, as integer inequalities."""
    p, q = eps.numerator, eps.denominator
    assert m * m * n * q * q >= (q - p) ** 2 * e, "size bound (tight form)"
    assert m * m * e * q * q >= (q - p) ** 2 * n**3, "size bound (cleared form)"
    # diff <= 2^33 * eps^-9 * (n^3/E)^4 * m
    assert diff * p**9 * e**4 <= 2**33 * q**9 * n**12 * m, "doubling bound"


# ----- the fixture suite ---------------------------------------------------

def small_set(seed):
    rng = SplitMix64(seed)
    mode = rng.below(4)
    if mode == 0:
        n = 1 + rng.below(40)
        spec = GroupSpec((0,))
        elems = set()
        while len(elems) < n:
            elems.add((rng.below(1000),))
        return AdditiveSet.from_elements(spec, elems)
    if mode == 1:
        n = 10 + rng.below(31)
        m = n + rng.below(n)
        return gen_random(n, m, rng.next_u64())
    if mode == 2:
        n = 1 + rng.below(40)
        m = max(41 + rng.below(200), n)
        return gen_random(n, m, rng.next_u64())
    m = 7 + rng.below(20)
    n = 1 + rng.below(min(30, m * m))
    spec = GroupSpec((m, m))
    elems = set()
    while len(elems) < n:
        elems.add((rng.below(m), rng.below(m)))
    return AdditiveSet.from_elements(spec, elems)


def fixture_sets():
    sets = [(f"ap:{n}", gen_ap(n)) for n in (3, 10, 50, 200)]
    sets += [
        (f"axis:{g},{d}", gen_axis(g, d))
        for g, d in ((11, 2), (101, 3), (997, 3))
    ]
    sets += [
        (f"ball:{d},{r}", gen_ball(d, r)) for d, r in ((1, 100), (2, 25), (3, 9))
    ]
    for n, m in ((31, 127), (63, 127), (64, 257), (128, 257), (255, 1021), (510, 1021)):
        sets.append((f"random:{n},{m},2026", gen_random(n, m, 2026)))
    for i in range(200):
        sets.append((f"small:{5000 + i}", small_set(5000 + i)))
    return sets


def axis_counts(a):
    """(E(A), |A - A|) for a set A of vectors in (Z_g)^d with at most one
    nonzero coordinate, from its per-axis sets, using no bsgx code.

    Let T_i be the nonzero values on axis i, and S_i be T_i with 0 added
    when 0 is in A.  A difference with one nonzero coordinate is w e_i with
    w != 0 in S_i - S_i, and its pairs are the pairs of S_i that differ by w.
    One with two, s e_i + w e_j for i < j, comes from (s e_i, -w e_j) when
    s in T_i and -w in T_j, and from (w e_j, -s e_i) when w in T_j and
    -s in T_i: both when s and w lie in T_i & -T_i and T_j & -T_j.  The zero
    difference has the n pairs (a, a).
    """
    g, dim = a.spec.moduli[0], a.spec.dim
    tails = [[] for _ in range(dim)]
    for e in a.elements:
        axes = [i for i, c in enumerate(e) if c]
        assert len(axes) <= 1 and set(a.spec.moduli) == {g}, e
        if axes:
            tails[axes[0]].append(e[axes[0]])
    n = len(a.elements)
    zero = [0] * (n - sum(map(len, tails)))
    energy, diff, mirrored = n * n, 1, []
    for t in tails:
        s = np.array(t + zero, dtype=np.int64)
        r = np.bincount(np.subtract.outer(s, s).ravel() % g, minlength=g)[1:]
        energy += int(np.dot(r, r))
        diff += int(np.count_nonzero(r))
        members = set(t)
        mirrored.append(sum(g - v in members for v in t))
    for i, j in combinations(range(dim), 2):
        both = len(tails[i]) * len(tails[j])
        energy += 2 * both + 2 * mirrored[i] * mirrored[j]
        diff += 2 * both - mirrored[i] * mirrored[j]
    return energy, diff


def reference_counts(label, a):
    """(E(A), |A - A|) recounted outside the library: axis_counts on the axis
    sets, else pure_energy and pure_diff_size."""
    if label.startswith("axis:"):
        return axis_counts(a)
    return pure_energy(a), pure_diff_size(a)


class Run(NamedTuple):
    eps: Fraction
    report: ExtractionReport
    diff_prime: int  # |A'-A'| recounted here
    verified: bool   # every oracle check passed, none skipped


class Row(NamedTuple):
    label: str
    a: AdditiveSet
    n: int
    e_pure: int
    diff_pure: int
    runs: Tuple[Run, ...]


_SWEEP_CACHE = []


def get_sweep():
    """Run the whole fixture suite once; later tests reuse the rows."""
    if not _SWEEP_CACHE:
        rows = []
        for label, a in fixture_sets():
            runs = []
            for eps in EPS_GRID:
                report = extract(a, Params(eps=eps))
                verified = verify_extraction(a, report).status == "pass"
                diff_prime = reference_counts(label, report.a_prime)[1]
                runs.append(Run(eps, report, diff_prime, verified))
            rows.append(Row(label, a, len(a), *reference_counts(label, a), tuple(runs)))
        _SWEEP_CACHE.append(rows)
    return _SWEEP_CACHE[0]


# ----- 1: energy against the quadruple-counting oracle ---------------------

def exhaustive_subsets(spec, universe):
    for size in range(1, len(universe) + 1):
        for combo in combinations(universe, size):
            yield AdditiveSet(spec, combo)


def energy_probe_set(seed):
    rng = SplitMix64(seed)
    if seed % 2:
        n = 1 + rng.below(40)
        elems = set()
        while len(elems) < n:
            elems.add((rng.below(10**9),))
        return AdditiveSet.from_elements(GroupSpec((0,)), elems)
    m = 2 + rng.below(10**6)
    n = 1 + rng.below(min(40, m))
    return gen_random(n, m, rng.next_u64())


def test_energy_equals_bruteforce_oracle():
    with verdict("1/9", "energy equals the quadruple-counting oracle"):
        count = 0
        z7 = GroupSpec((7,))
        for a in exhaustive_subsets(z7, tuple((i,) for i in range(7))):
            assert energy(a).energy == pure_energy(a), a.elements
            count += 1
        z33 = GroupSpec((3, 3))
        grid = tuple((i, j) for i in range(3) for j in range(3))
        for a in exhaustive_subsets(z33, grid):
            assert energy(a).energy == pure_energy(a), a.elements
            count += 1
        for seed in range(100, 600):
            a = energy_probe_set(seed)
            assert energy(a).energy == pure_energy(a), seed
            count += 1
        assert count == 127 + 511 + 500


# ----- 2: the headline size and doubling guarantees ------------------------

def test_extraction_guarantees_across_fixture_suite():
    with verdict("2/9", "size and doubling guarantees on the fixture suite"):
        sweep = get_sweep()
        # the axis reference agrees with the pair walks where those are cheap:
        # on the two small axis sets and on every A' extracted from them
        small = [row for row in sweep if row.label in ("axis:11,2", "axis:101,3")]
        assert len(small) == 2
        for row in small:
            assert axis_counts(row.a) == (pure_energy(row.a), pure_diff_size(row.a))
            for run in row.runs:
                a_prime = run.report.a_prime
                assert axis_counts(a_prime) == (pure_energy(a_prime), pure_diff_size(a_prime))
        # and on subsets with and without 0, empty axes and unpaired values
        for size in range(1, 32, 3):
            s = sample_subset(gen_axis(11, 3), size, 4_000 + size)
            assert axis_counts(s) == (pure_energy(s), pure_diff_size(s)), s.elements
        n_runs = 0
        for row in sweep:
            for run in row.runs:
                rpt = run.report
                assert rpt.energy == row.e_pure, row.label
                m = rpt.a_prime_size
                assert m == len(rpt.a_prime)
                assert set(rpt.a_prime.elements) <= set(row.a.elements)
                assert run.diff_prime == rpt.diff_size, row.label
                check_theorem_bounds(row.n, row.e_pure, run.eps, m, run.diff_prime)
                assert run.verified, (row.label, run.eps)
                n_runs += 1
        assert n_runs == len(sweep) * len(EPS_GRID)


# ----- 3: the popular branch carries a stronger K^3 bound -------------------

def test_popular_case_stronger_doubling_bound():
    with verdict("3/9", "popular-case runs meet the stronger K^3 bound"):
        sweep = get_sweep()
        seen = 0
        for row in sweep:
            for run in row.runs:
                if run.report.case != "P":
                    continue
                seen += 1
                p, q = run.eps.numerator, run.eps.denominator
                lhs = run.diff_prime * p**4 * row.e_pure**3
                rhs = 2**10 * q**4 * row.n**9 * run.report.a_prime_size
                assert lhs <= rhs, (row.label, run.eps)
        assert seen > 0


# ----- 4: every pair of the filtered subset is rich in 3-step paths ---------

def test_path_richness_of_filtered_subsets():
    with verdict("4/9", "3-step path floor on filtered subsets"):
        sweep = get_sweep()
        fixture_checked = 0
        for row in sweep:
            for run in row.runs:
                if run.report.case != "Q":
                    continue
                w = run.report.witness
                # a cap on the int64 products' multiply-adds; larger runs are not recounted
                if len(w.tv.a_star) * row.n**2 + len(w.tv.a_prime) ** 2 * row.n > 1 << 25:
                    continue
                relation = difference_relation(row.a, w.q_prime.elements)
                assert tv_failures(relation, w.tv, run.eps / 2)[0] == [], (row.label, run.eps)
                fixture_checked += 1
        assert fixture_checked == 106

        synthetic_checked = 0
        for trial in range(100):
            rng = SplitMix64(7_000 + trial)
            n = 10 + rng.below(51)
            density = F(2 + rng.below(9), 10)
            target = -(-density.numerator * n * n // density.denominator)
            pairs = set()
            while len(pairs) < target:
                pairs.add((rng.below(n), rng.below(n)))
            relation = relation_from_index_pairs(gen_ap(n), pairs)
            assert relation.delta >= F(1, 5)
            xi = F(1 + rng.below(10), 10)
            witness = extract_tv(relation, xi)
            assert tv_failures(relation, witness, xi)[0] == [], (trial, n, str(density), str(xi))
            synthetic_checked += 1
        assert synthetic_checked == 100


# ----- 5: prefix selection always certifies both max branches ---------------

def seeded_weight_vector(seed):
    rng = SplitMix64(seed)
    n = 1 + rng.below(50)
    style = rng.below(3)
    if style == 0:
        coeffs = tuple(rng.below(10**6) for _ in range(n))
    elif style == 1:
        coeffs = tuple(
            F(rng.below(10**4), 1 + rng.below(10**4)) for _ in range(n)
        )
    else:
        coeffs = tuple(
            rng.below(100) if rng.below(2) else F(rng.below(100), 7)
            for _ in range(n)
        )
    if max(coeffs) == 0:
        coeffs = coeffs[:-1] + (type(coeffs[-1])(1),)
    top = max(coeffs)
    scale = rng.below(3)
    if scale == 0:
        rho = F(1, 1) / (top * top)                      # tight: max weight is 1
    elif scale == 1:
        rho = F(1, 1) / (top * top * (1 + rng.below(1000)))
    else:
        rho = F(1 + rng.below(50), 50) / (top * top)      # within (0, 1/top^2]
    # Fraction coefficients are cleared to the integer array selection takes
    return weight_vector(rho, coeffs)


def test_prefix_selection_certificates():
    with verdict("5/9", "prefix selection passes the independent checker"):
        alphas = (F(1, 2), F(3, 4), F(39, 40))
        checked = 0
        for seed in range(1000):
            w = seeded_weight_vector(10_000 + seed)
            for alpha in alphas:
                sel = select_index_set(w, alpha)
                assert st_failures(w, alpha, sel)[0] == [], (seed, str(alpha))
                checked += 1
        assert checked == 3000


# ----- 6: the three-dimensional axis example -------------------------------

def test_axis_997_example():
    with verdict("6/9", "axis g=997 n=3 has K near 9 and certified runs"):
        row = next(r for r in get_sweep() if r.label == "axis:997,3")
        assert row.n == 3 * 996 + 1
        k = F(row.n**3, row.e_pure)
        assert abs(k - 9) <= F(9, 10), float(k)
        quarter = next(run for run in row.runs if run.eps == F(1, 4))
        assert quarter.report.case in ("P", "Q")
        check_theorem_bounds(
            row.n, row.e_pure, quarter.eps,
            quarter.report.a_prime_size, quarter.diff_prime,
        )


# ----- 7: energy times difference-set size is at least n^4 ------------------

def test_energy_diffsize_lower_bound():
    with verdict("7/9", "E(A) * |A-A| >= |A|^4 on every fixture set"):
        for row in get_sweep():
            assert row.e_pure * row.diff_pure >= row.n**4, row.label


# ----- 8: reports are byte-identical across reruns --------------------------

def test_report_determinism(tmp_path):
    with verdict("8/9", "byte-identical reports across reruns"):
        src = tmp_path / "input.aset"
        out = {}
        assert cli_main([
            "gen", "random", "--n", "63", "--modulus", "127", "--seed", "7",
            "--out", str(src),
        ]) == 0
        for name in ("a", "b"):
            path = tmp_path / f"{name}.json"
            rc = cli_main([
                "extract", str(src), "--eps", "1/4", "--out", str(path),
            ])
            assert rc == 0
            out[name] = path.read_bytes()
        assert out["a"] == out["b"], "rerun changed the report"


# ----- 9: sampled subsets of the grid counterexample expand -----------------

def test_axis_subset_expansion():
    with verdict("9/9", "sampled axis subsets have expanding differences"):
        g = 101
        a = gen_axis(g, 2)
        assert len(a) == 2 * (g - 1) + 1
        size = -(-5 * g // 4)  # ceil(1.25 * g) = 127
        for i in range(100):
            s = sample_subset(a, size, 9_000 + i)
            diff = pure_diff_size(s)
            # |A'-A'| >= (1/4)^2 * g^2, compared as 16 * diff >= g^2
            assert 16 * diff >= g * g, (i, diff)
