"""Brute-force verification of every certified quantity.

Everything here recomputes from the raw sets with plain Python dictionaries
and Fractions, sharing no caches, codecs, or numpy arrays with the main
path.  Energy is recounted through sums a + b rather than differences, the
difference set is rebuilt element by element, and the weight-selection and
path-count checks re-evaluate both sides of every inequality from their
definitions.

Checks that would be too expensive report a distinct "skipped" status; a
skipped check never counts as a pass.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .bsg import ExtractionReport
from .groups import AdditiveSet, Element, add, parse_set, sub
from .numeric_lemma import PrefixSelection, WeightVector
from .relation_lemma import Relation, TvWitness

_BRUTEFORCE_CAP = 200
_TV_CAP = 60


@dataclass(frozen=True)
class CheckRecord:
    """One verified relation: what was claimed, what brute force found."""

    name: str
    claimed: str
    actual: str
    status: str  # "pass" | "fail" | "skipped"


@dataclass(frozen=True)
class VerificationResult:
    checks: Tuple[CheckRecord, ...]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    @property
    def failed(self) -> Tuple[CheckRecord, ...]:
        return tuple(c for c in self.checks if c.status == "fail")

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {
                    "name": c.name,
                    "claimed": c.claimed,
                    "actual": c.actual,
                    "status": c.status,
                }
                for c in self.checks
            ],
        }


def _check(name: str, claimed, actual, ok: bool) -> CheckRecord:
    return CheckRecord(
        name=name,
        claimed=str(claimed),
        actual=str(actual),
        status="pass" if ok else "fail",
    )


def _skip(name: str, why: str) -> CheckRecord:
    return CheckRecord(name=name, claimed=why, actual="", status="skipped")


def energy_bruteforce(a_set: AdditiveSet) -> int:
    """Count quadruples (a1, a2, a3, a4) with a1 + a2 = a3 + a4 directly.

    Counts through sums: if s has p(s) ordered representations as a + b,
    the quadruple count is the sum of p(s)^2.  This is the transposed
    counting route from the main path, which works with differences.
    """
    if len(a_set) > _BRUTEFORCE_CAP:
        raise ValueError(
            f"brute-force energy is limited to {_BRUTEFORCE_CAP} elements, "
            f"got {len(a_set)}"
        )
    return _energy_by_sums(a_set)


def _energy_by_sums(a_set: AdditiveSet) -> int:
    """Unguarded sum-based energy recount for report verification."""
    spec = a_set.spec
    sums = Counter()
    for a in a_set.elements:
        for b in a_set.elements:
            sums[add(spec, a, b)] += 1
    return sum(c * c for c in sums.values())


def _difference_set_size(a_set: AdditiveSet) -> int:
    spec = a_set.spec
    diffs = set()
    for a in a_set.elements:
        for b in a_set.elements:
            diffs.add(sub(spec, a, b))
    return len(diffs)


def _rep_count(a_set: AdditiveSet, d: Element) -> int:
    """r(d) by direct membership: the a in A with a - d also in A."""
    spec = a_set.spec
    return sum(1 for a in a_set.elements if sub(spec, a, d) in a_set.as_set)


def _frac(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def verify_report_dict(a_set: AdditiveSet, report: dict) -> VerificationResult:
    """Check a serialized extraction report against the raw input set.

    Recomputes the energy (by sums), K, |A'|, and A' - A' from scratch and
    confirms the theorem inequalities plus the branch-specific witness
    facts recorded in the report.
    """
    checks: List[CheckRecord] = []
    spec = a_set.spec
    n = len(a_set)
    eps = _frac(report["params"]["eps"])
    case = report["case"]

    e_true = _energy_by_sums(a_set)
    k_true = Fraction(n**3, e_true)
    checks.append(
        _check("input_size_matches", report["input"]["n"], n, report["input"]["n"] == n)
    )
    checks.append(
        _check(
            "energy_matches",
            report["input"]["energy"],
            e_true,
            report["input"]["energy"] == e_true,
        )
    )
    checks.append(
        _check(
            "k_matches",
            report["input"]["K"],
            f"{k_true.numerator}/{k_true.denominator}",
            _frac(report["input"]["K"]) == k_true,
        )
    )

    a_prime = parse_set(report["a_prime"])
    if a_prime.spec != spec:
        raise ValueError("extracted set lives in a different group than the input")
    m = len(a_prime)
    checks.append(
        _check(
            "a_prime_size_matches",
            report["achieved"]["a_prime_size"],
            m,
            report["achieved"]["a_prime_size"] == m,
        )
    )
    subset_ok = all(a in a_set.as_set for a in a_prime.elements)
    checks.append(_check("a_prime_subset", "A' <= A", subset_ok, subset_ok))

    diff_true = _difference_set_size(a_prime)
    checks.append(
        _check(
            "diff_size_matches",
            report["achieved"]["diff_size"],
            diff_true,
            report["achieved"]["diff_size"] == diff_true,
        )
    )

    size_sq_true = (1 - eps) ** 2 * Fraction(e_true, n)
    checks.append(
        _check(
            "size_bound_recorded",
            report["bounds"]["size_bound_sq"],
            f"{size_sq_true.numerator}/{size_sq_true.denominator}",
            _frac(report["bounds"]["size_bound_sq"]) == size_sq_true,
        )
    )
    checks.append(
        _check(
            "size_lower_bound",
            f"|A'|^2 * n >= (1-eps)^2 * E",
            f"{m}^2 * {n} vs {(1 - eps) ** 2 * e_true}",
            m * m * n >= (1 - eps) ** 2 * e_true,
        )
    )
    # implied by size_lower_bound: multiply it by E / n and use E >= n^2
    checks.append(
        _check(
            "size_lower_bound_cleared",
            f"|A'|^2 * E >= (1-eps)^2 * n^3",
            f"{m}^2 * {e_true} vs {(1 - eps) ** 2 * n**3}",
            m * m * e_true >= (1 - eps) ** 2 * n**3,
        )
    )

    diff_bound_true = 2**33 * eps**-9 * k_true**4 * m
    checks.append(
        _check(
            "diff_bound_recorded",
            report["bounds"]["diff_bound"],
            f"{diff_bound_true.numerator}/{diff_bound_true.denominator}",
            _frac(report["bounds"]["diff_bound"]) == diff_bound_true,
        )
    )
    checks.append(
        _check(
            "diff_upper_bound",
            f"|A'-A'| <= 2^33 * eps^-9 * K^4 * |A'|",
            f"{diff_true} vs {float(diff_bound_true)!r}",
            diff_true <= diff_bound_true,
        )
    )

    witness = report["witness"]
    if case == "P":
        diff_bound_p = 2**10 * eps**-4 * k_true**3 * m
        checks.append(
            _check(
                "diff_upper_bound_popular",
                f"|A'-A'| <= 2^10 * eps^-4 * K^3 * |A'|",
                f"{diff_true} vs {float(diff_bound_p)!r}",
                diff_true <= diff_bound_p,
            )
        )
        d_star = spec.reduce(tuple(witness["d_star"]))
        r_star = _rep_count(a_set, d_star)
        checks.append(
            _check(
                "d_star_popular",
                "r(d*)^2 * n >= E",
                f"{r_star}^2 * {n} vs {e_true}",
                r_star * r_star * n >= e_true,
            )
        )
        checks.append(
            _check(
                "a_star_size_matches",
                witness["a_star_size"],
                r_star,
                witness["a_star_size"] == r_star,
            )
        )
        thin_true = (eps * eps * e_true) / (16 * n * n)
        thin_floor = thin_true.numerator // thin_true.denominator
        checks.append(
            _check(
                "thin_threshold_matches",
                witness["thin_threshold"],
                thin_floor,
                witness["thin_threshold"] == thin_floor,
            )
        )
    elif case == "Q":
        q_prime = parse_set(witness["q_prime"])
        checks.append(
            _check(
                "q_prime_size_matches",
                witness["q_prime_size"],
                len(q_prime),
                witness["q_prime_size"] == len(q_prime)
                and witness["selected_count"] == len(q_prime),
            )
        )
        unpopular = all(
            _rep_count(a_set, d) ** 2 * n < e_true for d in q_prime.elements
        )
        checks.append(
            _check("q_prime_unpopular", "r(d)^2 * n < E for d in Q'", unpopular, unpopular)
        )
        delta_true = Fraction(
            sum(_rep_count(a_set, d) for d in q_prime.elements), n * n
        )
        checks.append(
            _check(
                "delta_matches",
                witness["delta"],
                f"{delta_true.numerator}/{delta_true.denominator}",
                _frac(witness["delta"]) == delta_true,
            )
        )
        checks.append(
            _check(
                "delta_floor",
                "delta >= (1-eps/2) * K^(-1/2)",
                f"{float(delta_true)!r} vs sqrt({float((1 - eps / 2) ** 2 * Fraction(e_true, n**3))!r})",
                delta_true * delta_true >= (1 - eps / 2) ** 2 * Fraction(e_true, n**3),
            )
        )
        xi = eps / 2
        checks.append(
            _check(
                "a_prime_size_floor",
                "|A'| >= delta * (1-xi) * n",
                f"{m} vs {float(delta_true * (1 - xi) * n)!r}",
                Fraction(m) >= delta_true * (1 - xi) * n,
            )
        )
        x_star = spec.reduce(tuple(witness["x_star"]))
        checks.append(
            _check(
                "x_star_in_input",
                "x* in A",
                x_star in a_set.as_set,
                x_star in a_set.as_set,
            )
        )
    else:
        checks.append(_check("case_known", "P or Q", case, False))

    return VerificationResult(tuple(checks))


def verify_extraction(a_set: AdditiveSet, report: ExtractionReport) -> VerificationResult:
    """Object-level wrapper over the serialized-report verification."""
    return verify_report_dict(a_set, report.to_json_dict())


def verify_tv_property(
    relation: Relation, witness: TvWitness, xi: Fraction
) -> VerificationResult:
    """Recount three-step paths for every pair of the extracted subset.

    The count of triples (x, b, y) with (a1, x), (b, x), (b, y), (a2, y)
    all in R equals sum over b of |K(a1, b)| * |K(b, a2)| where K(u, v) is
    the set of common right-neighbors of u and v; each pair must reach
    2^-7 * delta^4 * xi^4 * |A|^2 * |A'| with delta = |R| / |A|^2.
    """
    xi = Fraction(xi)
    base = relation.base
    n = len(base)
    checks: List[CheckRecord] = []
    if n > _TV_CAP:
        return VerificationResult(
            (_skip("triple_paths", f"skipped (too large): |A| = {n} > {_TV_CAP}"),)
        )

    pairs = relation.pairs
    delta_true = Fraction(len(pairs), n * n)
    checks.append(
        _check(
            "delta_matches",
            witness.delta,
            delta_true,
            witness.delta == delta_true,
        )
    )

    nesting = all(
        a in witness.a_star.as_set for a in witness.a_prime.elements
    ) and all(a in base.as_set for a in witness.a_star.elements)
    checks.append(_check("witness_nesting", "A' <= A* <= A", nesting, nesting))

    checks.append(
        _check(
            "a_prime_size_floor",
            "|A'| >= delta * (1-xi) * n",
            f"{len(witness.a_prime)} vs {float(delta_true * (1 - xi) * n)!r}",
            Fraction(len(witness.a_prime)) >= delta_true * (1 - xi) * n,
        )
    )

    # common right-neighbor counts over all of A^2, from the raw pair set
    index = {a: i for i, a in enumerate(base.elements)}
    neighbors: List[set] = [set() for _ in range(n)]
    for i, j in pairs:
        # x is a common right-neighbor of a and a' when (a, x) and (a', x)
        # are both in R, so collect right-partners per left element
        neighbors[i].add(j)
    common = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            common[i][j] = len(neighbors[i] & neighbors[j])

    bound = delta_true**4 * xi**4 * n * n * len(witness.a_prime) / 128
    min_count: Optional[int] = None
    for a1 in witness.a_prime.elements:
        i1 = index[a1]
        for a2 in witness.a_prime.elements:
            i2 = index[a2]
            count = sum(common[i1][b] * common[b][i2] for b in range(n))
            if min_count is None or count < min_count:
                min_count = count
    checks.append(
        _check(
            "triple_paths",
            f"every pair >= {float(bound)!r}",
            f"min = {min_count}",
            Fraction(min_count) >= bound,
        )
    )
    return VerificationResult(tuple(checks))


def verify_st(
    xs: WeightVector, alpha: Fraction, sel: PrefixSelection
) -> VerificationResult:
    """Re-derive the weight selection facts with independent arithmetic.

    Rebuilds the stable descending order, recomputes S and T from their
    definitions, re-checks both branches of the certified maximum for the
    chosen prefix, and exhaustively scans the whole window [k, l] to
    confirm a valid prefix exists.
    """
    alpha = Fraction(alpha)
    checks: List[CheckRecord] = []
    n = len(xs)
    rho = xs.rho
    # int() first: coefficients may come as numpy integers from an array
    coeffs = [c if isinstance(c, Fraction) else Fraction(int(c)) for c in xs.coeffs]

    order_true = sorted(range(n), key=lambda i: (-coeffs[i], i))
    checks.append(
        _check(
            "order_matches",
            "stable descending permutation",
            list(sel.order) == order_true,
            list(sel.order) == order_true,
        )
    )
    chosen = sel.chosen_i
    checks.append(
        _check(
            "index_set_matches",
            "first chosen_i of the order, sorted",
            sorted(order_true[:chosen]) == list(sel.index_set),
            sorted(order_true[:chosen]) == list(sel.index_set),
        )
    )

    w_coeff = sum((coeffs[i] for i in sel.index_set), Fraction(0))
    checks.append(
        _check(
            "sum_matches",
            sel.certified_sum.coeff,
            w_coeff,
            Fraction(sel.certified_sum.coeff) == w_coeff
            and sel.certified_sum.rho == rho,
        )
    )

    s_coeff = sum(coeffs, Fraction(0))
    t_val = sum((c * c for c in coeffs), Fraction(0)) * rho

    # mass branch: W >= alpha * T, squared once to clear sqrt(rho)
    mass_ok = w_coeff * w_coeff * rho >= alpha * alpha * t_val * t_val
    checks.append(
        _check(
            "mass_branch",
            "W >= alpha * T",
            f"W^2 = {float(w_coeff * w_coeff * rho)!r} vs {float(alpha * alpha * t_val * t_val)!r}",
            mass_ok,
        )
    )

    # size branch: W^6 >= (1-alpha)^5 * i^4 * T^4 / (2^10 * S^2)
    def size_branch(prefix_coeff: Fraction, length: int) -> bool:
        lhs = prefix_coeff**6 * rho**3
        rhs = (1 - alpha) ** 5 * length**4 * t_val**4 / (1024 * s_coeff**2 * rho)
        return lhs >= rhs

    size_ok = size_branch(w_coeff, chosen)
    checks.append(
        _check(
            "size_branch",
            "W^6 >= (1-alpha)^5 * |I|^4 * T^4 / (2^10 * S^2)",
            size_ok,
            size_ok,
        )
    )

    # window: k = first prefix reaching alpha * T, l = last weight above
    # (1 - alpha) * T / (2 * S); confirm a valid prefix exists inside
    c_desc = [coeffs[i] for i in order_true]
    prefix_sums = []
    run = Fraction(0)
    for c in c_desc:
        run += c
        prefix_sums.append(run)
    k_true = None
    for i in range(1, n + 1):
        p = prefix_sums[i - 1]
        if p * p * rho >= alpha * alpha * t_val * t_val:
            k_true = i
            break
    ell_true = 0
    for i in range(1, n + 1):
        # x_(i) >= (1-alpha) * T / (2 * S), multiplied out by 2 * S > 0
        if 2 * c_desc[i - 1] * s_coeff * rho >= (1 - alpha) * t_val:
            ell_true = i
    checks.append(
        _check(
            "window_matches",
            f"[{sel.window_lo}, {sel.window_hi}]",
            f"[{k_true}, {ell_true}]",
            sel.window_lo == k_true and sel.window_hi == ell_true,
        )
    )
    checks.append(
        _check(
            "chosen_in_window",
            f"{k_true} <= chosen <= {ell_true}",
            chosen,
            k_true is not None and k_true <= chosen <= ell_true,
        )
    )
    any_valid = False
    if k_true is not None:
        for i in range(k_true, ell_true + 1):
            p = prefix_sums[i - 1]
            if p * p * rho >= alpha * alpha * t_val * t_val and size_branch(p, i):
                any_valid = True
                break
    checks.append(
        _check(
            "window_has_valid_prefix",
            "some prefix in [k, l] passes both branches",
            any_valid,
            any_valid,
        )
    )
    return VerificationResult(tuple(checks))
