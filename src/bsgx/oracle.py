"""Independent verification of every certified quantity.

The counting here shares no code with the main path: no codec, no rep
table, and none of its float32 GEMMs or row chunking.  Energy is recounted
through sums a + b rather than differences; r(d) for every difference of A,
and |A' - A'|, come from separate histograms of the differences a - b.  A
histogram writes each coordinate of every ordered pair as a fixed-width
int64 column, folds the columns into one mixed-radix int64 key, sorts the
keys and counts the runs of equal ones.  Before that, each coordinate is
mapped into the smallest group that holds it (a free one shifted by its
minimum, and both kinds divided by the gcd of their values), so a scaled
copy of a set counts like the set.  A column whose radix still needs 64
bits (a reduced modulus above 2^63, a free span of 2^62 or more) is
computed on Python ints and replaced by the ranks of its values, and a key
whose radix would overflow is ranked the same way.  The weight-selection
checks re-evaluate both sides of every inequality on Python ints, and the
path-count checks on exact int64 matrix products, whose entries stay below
n^3.

One pass costs a cell per ordered pair of its set plus one per difference
looked up in it, and _RANKED_CELL_COST = 5 cells for each of those when its
key is ranked.  The path counts cost |A*| * n^2 + |A'|^2 * n cells, one per
multiply-add of their two products.  A pass above _BUDGET_CELLS = 2^25 cells
is not run, which admits sets of up to 5792 elements, or 2590 when the key
is ranked.  At its peak a pass holds about 24 bytes per cell (measured: 24
on a set whose differences are all distinct, 22 on axis:997,3).  A ranked
pass held 66 bytes per cell on (Z_(2^40+15))^3 and 106 on a free span above
2^62, whose column is on Python ints and runs about 40 times slower per
cell; the charge of 5 keeps both within the budget's memory bound.  Every
check that needs a pass over budget reports a distinct "skipped" status
with the pass's size, and a skipped check never counts as a pass.

Every check is one call on _Checks: equal(name, claimed, needs, recount)
for a recorded value that must equal its recount, holds(name, claim, ok)
for a relation that needs no pass, and add for any other comparison.  A
fraction or set field of a report that is not a string raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .bsg import ExtractionReport
from .groups import AdditiveSet, GroupSpec, parse_set, sub
from .numeric_lemma import PrefixSelection, WeightVector
from .relation_lemma import Relation, TvWitness

_BUDGET_CELLS = 1 << 25
_RANKED_CELL_COST = 5  # budget cells charged per cell of a pass whose key is ranked
_KEY_LIMIT = 1 << 63  # every column value and every key stays below this
_KNOWN_VERSIONS = ("0.1.0",)


@dataclass(frozen=True)
class CheckRecord:
    """One verified relation: what was claimed, what the recount found."""

    name: str
    claimed: str
    actual: str
    status: str  # "pass" | "fail" | "skipped"


@dataclass(frozen=True)
class VerificationResult:
    checks: Tuple[CheckRecord, ...]

    @property
    def ok(self) -> bool:
        """No check failed; a skipped check does not fail, nor does it pass."""
        return all(c.status != "fail" for c in self.checks)

    @property
    def status(self) -> str:
        """"fail" if any check failed, else "skipped" if any was skipped, else "pass"."""
        statuses = {c.status for c in self.checks}
        for status in ("fail", "skipped"):
            if status in statuses:
                return status
        return "pass"

    @property
    def failed(self) -> Tuple[CheckRecord, ...]:
        return tuple(c for c in self.checks if c.status == "fail")

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "status": self.status,
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


# ----- pair histograms ------------------------------------------------------

@dataclass(frozen=True)
class _OverBudget:
    """A pass that was not run, and why."""

    reason: str


def _budget(cells: int, what: str) -> Optional[_OverBudget]:
    """None when a pass of this many cells fits the budget, else why it does not run."""
    if cells > _BUDGET_CELLS:
        return _OverBudget(f"skipped (over budget): {what} needs {cells} cells > {_BUDGET_CELLS}")
    return None


@dataclass(frozen=True)
class _Histogram:
    counts: np.ndarray        # how many pairs give each distinct value
    query_counts: np.ndarray  # how many pairs give each looked-up value

    def split(self, energy: int, n: int) -> Tuple[int, int]:
        """The popular mass and the number of unpopular differences.

        A difference d is popular when r(d)^2 * n >= E; the popular mass is
        the sum of r(d)^2 over the popular d.
        """
        popular = self.counts[self.counts * self.counts * n >= energy]
        return int(np.dot(popular, popular)), len(self.counts) - len(popular)


def _ranks(col: np.ndarray) -> Tuple[np.ndarray, int]:
    """Each value's rank among the distinct values of col, and their count."""
    distinct, ranks = np.unique(col, return_inverse=True)
    return ranks.astype(np.int64, copy=False), len(distinct)


@dataclass(frozen=True)
class _Coordinate:
    """One coordinate of a set, mapped into the smallest group that holds it.

    A free coordinate is shifted by its minimum and divided by the gcd g of
    what is left; a cyclic one is divided by the gcd g of m and its values
    and taken mod m / g.  Both maps are injective and additive, so they keep
    every equality between sums and between differences.
    """

    x: List[int]  # the reduced values
    g: int
    top: int      # the reduced modulus, or the free span
    cyclic: bool

    @classmethod
    def of(cls, values: Sequence[int], m: int) -> "_Coordinate":
        lo = 0 if m else min(values)
        g = math.gcd(m, *(v - lo for v in values)) or 1
        x = [(v - lo) // g for v in values]
        return cls(x, g, m // g if m else max(x), bool(m))

    @property
    def radix(self) -> int:
        """One past the largest column value; a free one's last is for queries."""
        return self.top + 1 if self.cyclic else 2 * self.top + 2


def _column(c: _Coordinate, op: str, queries: Sequence[int]) -> Tuple[np.ndarray, int]:
    """One coordinate of x_i + x_j ("sum") or x_i - x_j ("diff") over all pairs.

    The pairs come row-major, then one value per query (a coordinate of a
    looked-up difference).  Returns int64 values below the returned radix,
    equal exactly when the coordinates are.  A query that no pair can reach
    gets a value of its own.
    """
    n, top, radix = len(c.x), c.top, c.radix
    shift = 0 if c.cyclic else top
    wanted = []
    for d in queries:
        w = d // c.g + shift
        wanted.append(w if d % c.g == 0 and 0 <= w < radix - 1 else radix - 1)
    # a coordinate whose radix needs 64 bits is counted on Python ints
    dtype = np.uint64 if radix <= _KEY_LIMIT else object
    xs = np.array(c.x, dtype=dtype)
    col = np.empty(n * n + len(queries), dtype=dtype)
    cells = col[: n * n].reshape(n, n)
    # x_i + (top - x_j) is x_i - x_j + top, which the reduction or the
    # free span absorbs; on uint64 no sum reaches 2^64
    np.add(xs[:, None], xs[None, :] if op == "sum" else top - xs[None, :], out=cells)
    if c.cyclic:
        np.subtract(cells, top, out=cells, where=cells >= top)
    col[n * n:] = wanted
    if dtype is object:
        return _ranks(col)
    return col.view(np.int64), radix


def _keys(coords: Sequence[_Coordinate], op: str, queries: Sequence[tuple]) -> np.ndarray:
    """Mixed-radix int64 keys of every pair a_i op a_j, then of the queries."""
    key, radix = _column(coords[0], op, [d[0] for d in queries])
    for k in range(1, len(coords)):
        col, r = _column(coords[k], op, [d[k] for d in queries])
        if radix * r > _KEY_LIMIT:
            key, radix = _ranks(key)
            if radix * r > _KEY_LIMIT:
                col, r = _ranks(col)
        key *= r
        key += col
        radix *= r
        del col  # free it before the next column is built
    return key


def _histogram(
    a_set: AdditiveSet, op: str, what: str, queries: Sequence[tuple] = ()
) -> Union[_Histogram, _OverBudget]:
    """Count the pairs of a_set by the value of a_i op a_j, and look up the queries."""
    coords = [
        _Coordinate.of([a[k] for a in a_set.elements], m)
        for k, m in enumerate(a_set.spec.moduli)
    ]
    pairs = len(a_set) ** 2
    cells = pairs + len(queries)
    # the key is ranked exactly when the radix product passes the limit
    if math.prod(c.radix for c in coords) > _KEY_LIMIT:
        cells *= _RANKED_CELL_COST
    over = _budget(cells, what)
    if over is not None:
        return over
    key = _keys(coords, op, queries)
    values, wanted = key[:pairs], key[pairs:]
    values.sort()
    found = np.searchsorted(values, wanted, "right") - np.searchsorted(values, wanted, "left")
    breaks = np.concatenate(([True], values[1:] != values[:-1]))
    del key, values, wanted  # free the keys before the run starts are built
    starts = np.flatnonzero(breaks)
    del breaks
    counts = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = pairs - starts[-1]
    return _Histogram(counts, found)


def _energy(a_set: AdditiveSet) -> Union[int, _OverBudget]:
    sums = _histogram(a_set, "sum", "E (sums of A)")
    if isinstance(sums, _OverBudget):
        return sums
    return int(np.dot(sums.counts, sums.counts))


def _difference_set_size(a_set: AdditiveSet) -> Union[int, _OverBudget]:
    diffs = _histogram(a_set, "diff", "|A'-A'|")
    if isinstance(diffs, _OverBudget):
        return diffs
    return len(diffs.counts)


# ----- report checks --------------------------------------------------------

class _Checks:
    """The check records of one verification, in the order they were added."""

    def __init__(self) -> None:
        self.records: List[CheckRecord] = []

    def add(self, name: str, needs: Sequence, evaluate: Callable) -> None:
        """Record evaluate(*needs) -> (claimed, actual, ok).

        When one of the needed values is a pass that was over budget, the
        check is recorded as skipped instead, with that pass's size.
        """
        over = next((v for v in needs if isinstance(v, _OverBudget)), None)
        if over is not None:
            record = CheckRecord(name, over.reason, "", "skipped")
        else:
            claimed, actual, ok = evaluate(*needs)
            record = CheckRecord(name, str(claimed), str(actual), "pass" if ok else "fail")
        self.records.append(record)

    def equal(self, name: str, claimed, needs: Sequence, recount: Callable) -> None:
        """Record that the claimed value equals recount(*needs).

        A Fraction recount is compared with _frac(claimed) and shown as
        _text, unless the claim is itself a Fraction.  An integer recount
        passes only an integer claim, as Python ints: a float or bool that
        Python finds equal fails.  Any other claim is compared as it is.
        """
        def evaluate(*values):
            actual = recount(*values)
            if isinstance(actual, Fraction) and not isinstance(claimed, Fraction):
                return claimed, _text(actual), _frac(claimed) == actual
            if isinstance(actual, int):
                return claimed, actual, _is_int(claimed) and int(claimed) == actual
            return claimed, actual, claimed == actual

        self.add(name, needs, evaluate)

    def holds(self, name: str, claim, ok: bool) -> None:
        """Record a relation that needs no pass: the claim, and whether it held."""
        self.add(name, (), lambda: (claim, ok, ok))

    def result(self) -> VerificationResult:
        return VerificationResult(tuple(self.records))


def _is_int(value) -> bool:
    """An integer, as a report or the library writes it: no bool, no float."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _frac(text: str) -> Fraction:
    if not isinstance(text, str):
        raise ValueError(f"expected a fraction as a string, got {text!r}")
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def _text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _parse_in(spec: GroupSpec, text: str, what: str) -> AdditiveSet:
    if not isinstance(text, str):
        raise ValueError(f"{what} is not a string")
    a_set = parse_set(text)
    if a_set.spec != spec:
        raise ValueError(f"{what} lives in a different group than the input")
    return a_set


def verify_report_dict(a_set: AdditiveSet, report: dict) -> VerificationResult:
    """Check a serialized extraction report against the raw input set.

    Recounts the energy (by sums), r(d) for every difference of A, and
    |A' - A'| from scratch, and confirms the theorem inequalities, the
    branch hypothesis and every witness field the report records.  Raises
    ValueError for an unknown report version or a set from another group.
    """
    if report["version"] not in _KNOWN_VERSIONS:
        raise ValueError(f"unknown report version {report['version']!r}")
    spec = a_set.spec
    n = len(a_set)
    eps = _frac(report["params"]["eps"])
    case = report["case"]
    recorded = report["input"]
    bounds = report["bounds"]
    achieved = report["achieved"]
    witness = report["witness"]
    a_prime = _parse_in(spec, report["a_prime"], "extracted set")
    m = len(a_prime)
    queries: List[tuple] = []
    if case == "P":
        queries = [spec.reduce(tuple(witness["d_star"]))]
    elif case == "Q":
        q_prime = _parse_in(spec, witness["q_prime"], "Q'")
        queries = list(q_prime.elements)

    energy = _energy(a_set)
    diffs = _histogram(a_set, "diff", "r(d) (differences of A)", queries)
    diff_size = _difference_set_size(a_prime)

    def k_of(e: int) -> Fraction:
        return Fraction(n**3, e)

    def size_sq(e: int) -> Fraction:
        return (1 - eps) ** 2 * Fraction(e, n)

    def diff_bound(e: int) -> Fraction:
        return 2**33 * eps**-9 * k_of(e) ** 4 * m

    def diff_bound_p(e: int) -> Fraction:
        return 2**10 * eps**-4 * k_of(e) ** 3 * m

    checks = _Checks()
    checks.equal("input_size_matches", recorded["n"], (), lambda: n)
    checks.equal("energy_matches", recorded["energy"], (energy,), lambda e: e)
    checks.equal("k_matches", recorded["K"], (energy,), k_of)
    checks.equal("a_prime_size_matches", achieved["a_prime_size"], (), lambda: m)
    checks.holds("a_prime_subset", "A' <= A", all(a in a_set.as_set for a in a_prime.elements))
    checks.equal("diff_size_matches", achieved["diff_size"], (diff_size,), lambda d: d)
    checks.equal("size_bound_recorded", bounds["size_bound_sq"], (energy,), size_sq)
    checks.add(
        "size_lower_bound", (energy,),
        lambda e: (
            "|A'|^2 * n >= (1-eps)^2 * E",
            f"{m}^2 * {n} vs {(1 - eps) ** 2 * e}",
            m * m * n >= (1 - eps) ** 2 * e,
        ),
    )
    # implied by size_lower_bound: multiply it by E / n and use E >= n^2
    checks.add(
        "size_lower_bound_cleared", (energy,),
        lambda e: (
            "|A'|^2 * E >= (1-eps)^2 * n^3",
            f"{m}^2 * {e} vs {(1 - eps) ** 2 * n**3}",
            m * m * e >= (1 - eps) ** 2 * n**3,
        ),
    )
    checks.equal("diff_bound_recorded", bounds["diff_bound"], (energy,), diff_bound)
    checks.add(
        "diff_upper_bound", (energy, diff_size),
        lambda e, d: (
            "|A'-A'| <= 2^33 * eps^-9 * K^4 * |A'|",
            f"{d} vs {float(diff_bound(e))!r}",
            d <= diff_bound(e),
        ),
    )

    if case == "P":
        _popular_checks(checks, witness, bounds, n, eps, energy, diffs, diff_size, diff_bound_p)
    elif case == "Q":
        _unpopular_checks(checks, a_set, witness, q_prime, m, eps, energy, diffs)
    else:
        checks.add("case_known", (), lambda: ("P or Q", case, False))
    return checks.result()


def _popular_checks(
    checks: _Checks, witness: dict, bounds: dict, n: int, eps: Fraction,
    energy, diffs, diff_size, diff_bound_p: Callable[[int], Fraction],
) -> None:
    """The popular branch: its hypothesis, d*, A* = A_d* and the thresholds."""
    checks.equal("diff_bound_p_recorded", bounds["diff_bound_p"], (energy,), diff_bound_p)
    checks.add(
        "diff_upper_bound_popular", (energy, diff_size),
        lambda e, d: (
            "|A'-A'| <= 2^10 * eps^-4 * K^3 * |A'|",
            f"{d} vs {float(diff_bound_p(e))!r}",
            d <= diff_bound_p(e),
        ),
    )

    def hypothesis(e: int, h: _Histogram):
        p_mass, _ = h.split(e, n)
        return "4 * p_mass >= eps * E", f"4 * {p_mass} vs {eps * e}", 4 * p_mass >= eps * e

    checks.add("branch_hypothesis", (energy, diffs), hypothesis)

    def r_star(h: _Histogram) -> int:
        return int(h.query_counts[0])

    checks.add(
        "d_star_popular", (energy, diffs),
        lambda e, h: (
            "r(d*)^2 * n >= E",
            f"{r_star(h)}^2 * {n} vs {e}",
            r_star(h) ** 2 * n >= e,
        ),
    )
    checks.equal("a_star_size_matches", witness["a_star_size"], (diffs,), r_star)

    def thin_floor(e: int) -> int:
        thin = (eps * eps * e) / (16 * n * n)
        return thin.numerator // thin.denominator

    checks.equal("thin_threshold_matches", witness["thin_threshold"], (energy,), thin_floor)


def _unpopular_checks(
    checks: _Checks, a_set: AdditiveSet, witness: dict, q_prime: AdditiveSet,
    m: int, eps: Fraction, energy, diffs,
) -> None:
    """The unpopular branch: its hypothesis, Q', delta, x* and A* = N(x*)."""
    spec = a_set.spec
    n = len(a_set)

    def hypothesis(e: int, h: _Histogram):
        p_mass, _ = h.split(e, n)
        q_mass = e - p_mass
        return (
            "q_mass >= (1 - eps/4) * E",
            f"{q_mass} vs {(1 - eps / 4) * e}",
            q_mass >= (1 - eps / 4) * e,
        )

    checks.add("branch_hypothesis", (energy, diffs), hypothesis)

    checks.equal(
        "q_size_matches", witness["q_size"], (energy, diffs), lambda e, h: h.split(e, n)[1]
    )
    sizes = (witness["q_prime_size"], witness["selected_count"])
    sizes_ok = all(_is_int(c) and c == len(q_prime) for c in sizes)
    checks.add("q_prime_size_matches", (), lambda: (sizes[0], len(q_prime), sizes_ok))

    def unpopular(e: int, h: _Histogram):
        ok = bool(np.all(h.query_counts * h.query_counts * n < e))
        return "r(d)^2 * n < E for d in Q'", ok, ok

    checks.add("q_prime_unpopular", (energy, diffs), unpopular)

    def delta(h: _Histogram) -> Fraction:
        return Fraction(int(h.query_counts.sum()), n * n)

    checks.equal("delta_matches", witness["delta"], (diffs,), delta)
    checks.add(
        "delta_floor", (energy, diffs),
        lambda e, h: (
            "delta >= (1-eps/2) * K^(-1/2)",
            f"{float(delta(h))!r} vs sqrt({float((1 - eps / 2) ** 2 * Fraction(e, n**3))!r})",
            delta(h) ** 2 >= (1 - eps / 2) ** 2 * Fraction(e, n**3),
        ),
    )
    xi = eps / 2
    checks.add(
        "a_prime_size_floor", (diffs,),
        lambda h: (
            "|A'| >= delta * (1-xi) * n",
            f"{m} vs {float(delta(h) * (1 - xi) * n)!r}",
            Fraction(m) >= delta(h) * (1 - xi) * n,
        ),
    )
    x_star = spec.reduce(tuple(witness["x_star"]))
    checks.holds("x_star_in_input", "x* in A", x_star in a_set.as_set)
    # A* = N(x*) = {a in A : a - x* in Q'}, one lookup per element of A
    members = q_prime.as_set
    a_star_size = sum(1 for a in a_set.elements if sub(spec, a, x_star) in members)
    checks.equal("a_star_size_matches", witness["a_star_size"], (), lambda: a_star_size)


def verify_extraction(a_set: AdditiveSet, report: ExtractionReport) -> VerificationResult:
    """Object-level wrapper over the serialized-report verification."""
    return verify_report_dict(a_set, report.to_json_dict())


def verify_tv_property(
    relation: Relation, witness: TvWitness, xi: Fraction
) -> VerificationResult:
    """Check x*, xi and A* = N(x*), then recount A*'s thin pairs and A''s paths.

    x* must lie in A and A* be its neighbourhood; both checks are O(n) and
    run whatever the budget.  With C = R R^T, C[u, v] counts the common
    right-neighbors of u and v, and the triples (x, b, y) with (a1, x),
    (b, x), (b, y), (a2, y) all in R number sum over b of C[a1, b] *
    C[b, a2], which is (C_A' C_A'^T)[a1, a2] for the rows C_A' of C at A';
    each pair must reach 2^-7 * delta^4 * xi^4 * |A|^2 * |A'| with
    delta = |R| / |A|^2.  C is symmetric and A' <= A*, so only its rows at
    A* are formed (at A* and A' together for a witness that breaks the
    nesting); an element outside A has a zero row.  Both products are exact
    on int64 and charged |A*| * n^2 + |A'|^2 * n cells; over budget, the two
    checks that need them are skipped and the others still run.
    """
    xi = Fraction(xi)
    base = relation.base
    n = len(base)
    m = len(witness.a_prime)
    delta = relation.delta
    index = {a: i for i, a in enumerate(base.elements)}
    star = [index.get(a, n) for a in witness.a_star.elements]
    prime = [index.get(a, n) for a in witness.a_prime.elements]
    nesting = n not in star and witness.a_prime.as_set <= witness.a_star.as_set
    rows, at = np.unique(np.array(star + prime, dtype=np.int64), return_inverse=True)

    def products() -> Tuple[int, Optional[int]]:
        # the int64 copy of R, with a zero row n for elements outside A
        r = np.zeros((n + 1, n), dtype=np.int64)
        r[:n] = relation.matrix
        common = r[rows] @ r.T
        thin = delta * delta * xi * xi * n / 8
        omega = common[np.ix_(at[: len(star)], star)] <= thin.numerator // thin.denominator
        c_prime = common[at[len(star):]]
        return int(omega.sum()), int((c_prime @ c_prime.T).min()) if m else None

    # the int64 copy of R is charged as one row of C when no row is formed
    cells = max(len(rows), 1) * n * n + m * m * n
    counts = _budget(cells, "the path count (|A*| * n^2 + |A'|^2 * n)") or products()

    center = index.get(witness.x_star)
    column = () if center is None else np.flatnonzero(relation.matrix[:, center])
    star_ok = witness.a_star.as_set == {base.elements[i] for i in column}

    checks = _Checks()
    checks.equal("delta_matches", witness.delta, (), lambda: delta)
    checks.equal("xi_matches", witness.xi, (), lambda: xi)
    checks.holds("x_star_in_a", witness.x_star, center is not None)
    checks.holds("a_star_is_neighbourhood", "A* = N(x*)", star_ok)
    checks.holds("witness_nesting", "A' <= A* <= A", nesting)
    checks.add(
        "a_prime_size_floor", (),
        lambda: (
            "|A'| >= delta * (1-xi) * n",
            f"{m} vs {float(delta * (1 - xi) * n)!r}",
            Fraction(m) >= delta * (1 - xi) * n,
        ),
    )
    checks.equal("thin_pairs_in_a_star", witness.omega_card_in_astar, (counts,), lambda p: p[0])
    bound = delta**4 * xi**4 * n * n * m / 128
    checks.add(
        "triple_paths", (counts,),
        lambda p: (f"every pair >= {float(bound)!r}", f"min = {p[1]}", not m or p[1] >= bound),
    )
    return checks.result()


def verify_st(
    xs: WeightVector, alpha: Fraction, sel: PrefixSelection
) -> VerificationResult:
    """Re-derive the weight selection facts with independent arithmetic.

    Rebuilds the stable descending order with Python's sort (sel.order must
    be its first l entries, the window), recomputes S and T from their
    definitions on Python ints (only rho and alpha are Fractions), re-checks
    both branches of the certified maximum for the chosen prefix, and scans
    the whole window [k, l] to confirm a valid prefix exists.  An index
    outside the weights adds nothing to W, and index_set_matches fails on it.
    """
    alpha = Fraction(alpha)
    n = len(xs)
    rho = xs.rho
    coeffs = xs.coeffs.tolist()
    # sorted is stable, and reverse=True keeps equal keys in index order
    order_true = sorted(range(n), key=coeffs.__getitem__, reverse=True)
    chosen = sel.chosen_i
    w_coeff = sum(coeffs[i] for i in sel.index_set if 0 <= i < n)
    s_coeff = sum(coeffs)
    t_val = sum(c * c for c in coeffs) * rho
    c_desc = [coeffs[i] for i in order_true]
    prefix = list(accumulate(c_desc))
    mass_floor = alpha * alpha * t_val * t_val

    def mass(p: int) -> bool:
        # W >= alpha * T, squared once to clear sqrt(rho)
        return p * p * rho >= mass_floor

    def size(p: int, length: int) -> bool:
        # W^6 >= (1-alpha)^5 * i^4 * T^4 / (2^10 * S^2)
        return p**6 * rho**3 >= (1 - alpha) ** 5 * length**4 * t_val**4 / (1024 * s_coeff**2 * rho)

    # window: k = first prefix reaching alpha * T, l = last weight at least
    # (1 - alpha) * T / (2 * S), multiplied out by 2 * S > 0
    k_true = next((i for i, p in enumerate(prefix, 1) if mass(p)), None)
    ell_true = max(
        (i for i, c in enumerate(c_desc, 1) if 2 * c * s_coeff * rho >= (1 - alpha) * t_val),
        default=0,
    )
    any_valid = k_true is not None and any(
        mass(prefix[i - 1]) and size(prefix[i - 1], i) for i in range(k_true, ell_true + 1)
    )
    checks = _Checks()
    checks.holds(
        "order_matches", "stable descending permutation", list(sel.order) == order_true[:ell_true]
    )
    checks.holds(
        "index_set_matches", "first chosen_i of the order, sorted",
        sorted(order_true[:chosen]) == list(sel.index_set),
    )
    checks.equal("sum_matches", sel.certified_coeff, (), lambda: w_coeff)
    checks.add(
        "mass_branch", (),
        lambda: (
            "W >= alpha * T",
            f"W^2 = {float(w_coeff * w_coeff * rho)!r} vs {float(mass_floor)!r}",
            mass(w_coeff),
        ),
    )
    checks.holds(
        "size_branch", "W^6 >= (1-alpha)^5 * |I|^4 * T^4 / (2^10 * S^2)", size(w_coeff, chosen)
    )
    window = f"[{k_true}, {ell_true}]"
    checks.equal("window_matches", f"[{sel.window_lo}, {sel.window_hi}]", (), lambda: window)
    checks.add(
        "chosen_in_window", (),
        lambda: (
            f"{k_true} <= chosen <= {ell_true}", chosen,
            k_true is not None and k_true <= chosen <= ell_true,
        ),
    )
    checks.holds("window_has_valid_prefix", "some prefix in [k, l] passes both branches", any_valid)
    return checks.result()
