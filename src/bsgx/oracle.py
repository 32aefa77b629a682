"""Independent verification of every certified quantity.

verify_report_dict reads a report as its JSON dict; a library caller passes
ExtractionReport.to_json_dict().  The counting here shares no code with the main path: no codec, no rep
table, and none of its float32 GEMMs or row chunking.  Energy is recounted
through sums a + b rather than differences; r(d) for every difference of A
comes from a histogram of the differences a - b, and so does |A' - A'|:
from that same histogram when A' is A, else from a pass over A'.  A
histogram writes each coordinate of every ordered pair as a fixed-width
column, folds the columns into one mixed-radix key, sorts the keys and
counts the runs of equal ones.  Before that, each coordinate is mapped into
the smallest group that holds it (a free one shifted by its minimum, and
both kinds divided by the gcd of their values), so a scaled copy of a set
counts like the set.

The key width follows one rule.  When the product of a pass's column
radices is at most _NARROW_LIMIT = 2^31, every column and the key are
uint32: a free column's x_i + (top - x_j) <= 2 top stays below its radix
2 top + 2, a cyclic column's unreduced sum is at most 2 (top - 1) < 2^32,
and every key is below the product.  Otherwise columns are uint64 and keys
int64.  A column whose radix still needs 64 bits (a reduced modulus above
2^63, a free span of 2^62 or more) is computed on Python ints and replaced
by the ranks of its values, and a key whose radix would overflow is ranked
the same way.

One pass costs a cell per ordered pair of its set plus one per difference
looked up in it, and _RANKED_CELL_COST = 5 cells for each of those when its
key is ranked.  A pass above _BUDGET_CELLS = 2^25 cells is not run, which
admits sets of up to 5792 elements on either key width, or 2590 when the
key is ranked.  A pass raises the process's peak RSS by 6 bytes per cell
on uint32 keys with one column (random:2000,1000003,3) and 9 with three
(axis:997,3), against 10 and 17 on uint64; when nearly every difference is
distinct, the int64 run starts and int32 counts (12 bytes per distinct
value) take over: 12 on uint32 keys (Z_(2^31-1)) and 14 on uint64
(Z_(2^33+17)), 2,000 random elements each.  A ranked pass held 66
bytes per cell on (Z_(2^40+15))^3 and 106 on a free span above 2^62, whose
column is on Python ints and runs about 40 times slower per cell; the
charge of 5 keeps both within the budget's memory bound.  Every
check that needs a pass over budget reports a distinct "skipped" status
with the pass's size, and a skipped check never counts as a pass.

Every check is one call on _Checks: equal(name, claimed, needs, recount)
for a recorded value that must equal its recount, holds(name, claim, needs,
test) for a claim that test decides, and add for any other comparison.  A
fraction or set field of a report that is not a string, an element field
with a coordinate that is not an integer, a run_both that is not a JSON
bool, a thin_pairs_in_a_star that is not an integer >= 0, or an eps outside
(0, 1/2), the range extract accepts, raises ValueError; a missing field
raises KeyError.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

from .groups import AdditiveSet, GroupSpec, parse_set

_BUDGET_CELLS = 1 << 25
_RANKED_CELL_COST = 5  # budget cells charged per cell of a pass whose key is ranked
_KEY_LIMIT = 1 << 63  # every column value and every key stays below this
_NARROW_LIMIT = 1 << 31  # a pass whose radix product is at most this runs on uint32
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

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "status": self.status,
            "checks": [asdict(c) for c in self.checks],
        }


# ----- pair histograms ------------------------------------------------------

@dataclass(frozen=True)
class _OverBudget:
    """A pass that was not run, and why."""

    reason: str


@dataclass(frozen=True)
class _Histogram:
    counts: np.ndarray        # how many pairs give each distinct value, int32
    query_counts: np.ndarray  # how many pairs give each looked-up value

    def split(self, energy: int, n: int) -> Tuple[int, int]:
        """The popular mass and the number of unpopular differences.

        A difference d is popular when r(d)^2 * n >= E; the popular mass is
        the sum of r(d)^2 over the popular d.
        """
        # r^2 * n >= E exactly when r > isqrt((E - 1) // n)
        popular = self.counts[self.counts > math.isqrt((energy - 1) // n)].astype(np.int64)
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


def _coordinates(a_set: AdditiveSet) -> List[_Coordinate]:
    """Every coordinate of a_set, each mapped into its smallest group."""
    return [
        _Coordinate.of([a[k] for a in a_set.elements], m)
        for k, m in enumerate(a_set.spec.moduli)
    ]


def _column(
    c: _Coordinate, op: str, queries: Sequence[int], dtype: type
) -> Tuple[np.ndarray, int]:
    """One coordinate of x_i + x_j ("sum") or x_i - x_j ("diff") over all pairs.

    The pairs come row-major, then one value per query (a coordinate of a
    looked-up difference).  Returns values below the returned radix, equal
    exactly when the coordinates are: uint32 when dtype is, else int64.  A
    query that no pair can reach gets a value of its own.
    """
    n, top, radix = len(c.x), c.top, c.radix
    shift = 0 if c.cyclic else top
    wanted = []
    for d in queries:
        w = d // c.g + shift
        wanted.append(w if d % c.g == 0 and 0 <= w < radix - 1 else radix - 1)
    # a coordinate whose radix needs 64 bits is counted on Python ints
    if radix > _KEY_LIMIT:
        dtype = object
    xs = np.array(c.x, dtype=dtype)
    col = np.empty(n * n + len(queries), dtype=dtype)
    cells = col[: n * n].reshape(n, n)
    # x_i + (top - x_j) is x_i - x_j + top, which the reduction or the
    # free span absorbs; no sum reaches 2^64, nor 2^32 on the narrow route
    np.add(xs[:, None], xs[None, :] if op == "sum" else top - xs[None, :], out=cells)
    if c.cyclic:
        np.subtract(cells, top, out=cells, where=cells >= top)
    col[n * n:] = wanted
    if dtype is object:
        return _ranks(col)
    return (col if dtype is np.uint32 else col.view(np.int64)), radix


def _keys(
    coords: Sequence[_Coordinate], op: str, queries: Sequence[tuple], dtype: type
) -> np.ndarray:
    """Mixed-radix keys of every pair a_i op a_j, then of the queries.

    On uint32 the radix product is at most _NARROW_LIMIT, so no key needs
    ranking; on uint64 the keys are int64 and ranked past _KEY_LIMIT.
    """
    key, radix = _column(coords[0], op, [d[0] for d in queries], dtype)
    for k in range(1, len(coords)):
        col, r = _column(coords[k], op, [d[k] for d in queries], dtype)
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
    coords: Sequence[_Coordinate], op: str, what: str, queries: Sequence[tuple] = ()
) -> Union[_Histogram, _OverBudget]:
    """Count the pairs of a set, given as its coordinates, by the value of
    a_i op a_j, and look up the queries."""
    pairs = len(coords[0].x) ** 2
    cells = pairs + len(queries)
    product = math.prod(c.radix for c in coords)
    # the key is ranked exactly when the radix product passes the limit
    if product > _KEY_LIMIT:
        cells *= _RANKED_CELL_COST
    if cells > _BUDGET_CELLS:
        return _OverBudget(f"skipped (over budget): {what} needs {cells} cells > {_BUDGET_CELLS}")
    key = _keys(coords, op, queries, np.uint32 if product <= _NARROW_LIMIT else np.uint64)
    values, wanted = key[:pairs], key[pairs:]
    values.sort()
    found = np.searchsorted(values, wanted, "right") - np.searchsorted(values, wanted, "left")
    breaks = np.concatenate(([True], values[1:] != values[:-1]))
    del key, values, wanted  # free the keys before the run starts are built
    starts = np.flatnonzero(breaks)
    del breaks
    counts = np.empty(len(starts), dtype=np.int32)  # a count is at most n
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = pairs - starts[-1]
    return _Histogram(counts, found)


def _diff_size(a_prime: AdditiveSet, is_a: bool, diffs) -> Union[int, _OverBudget]:
    """|A' - A'|: the size of A's r(d) histogram when A' is A, else its own pass.

    The r(d) pass carries the queries, so it can be over budget where the
    pass over A' alone is not; then A' gets its own pass.
    """
    if is_a and isinstance(diffs, _Histogram):
        return len(diffs.counts)
    hist = _histogram(_coordinates(a_prime), "diff", "|A'-A'|")
    return len(hist.counts) if isinstance(hist, _Histogram) else hist


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
        _frac_str.  Any other recount, an integer, passes only an integer
        claim, as Python ints: a float or bool that Python finds equal fails.
        """
        def evaluate(*values):
            actual = recount(*values)
            if isinstance(actual, Fraction):
                return claimed, _frac_str(actual), _frac(claimed) == actual
            return claimed, actual, _is_int(claimed) and int(claimed) == actual

        self.add(name, needs, evaluate)

    def holds(self, name: str, claim: str, needs: Sequence, test: Callable) -> None:
        """Record the claim, and whether test(*needs) held, at every entry of an array."""
        self.add(name, needs, lambda *values: (claim,) + (bool(np.all(test(*values))),) * 2)


def _is_int(value) -> bool:
    """An integer, as a report or the library writes it: no bool, no float."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _bound_str(bound: Fraction) -> str:
    """The bound as a float's repr, or as an exact fraction past the float range."""
    try:
        return repr(float(bound))
    except OverflowError:
        return _frac_str(bound)


def _frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _frac(text: str) -> Fraction:
    if not isinstance(text, str):
        raise ValueError(f"expected a fraction as a string, got {text!r}")
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def _parse_in(spec: GroupSpec, text: str, what: str) -> AdditiveSet:
    if not isinstance(text, str):
        raise ValueError(f"{what} is not a string")
    a_set = parse_set(text)
    if a_set.spec != spec:
        raise ValueError(f"{what} lives in a different group than the input")
    return a_set


def _element(spec: GroupSpec, coords, what: str) -> tuple:
    """The element a report field lists, canonical; its coordinates must be integers."""
    if not isinstance(coords, list) or not all(map(_is_int, coords)):
        raise ValueError(f"{what} must be a list of integers, got {coords!r}")
    return spec.reduce(coords)


def verify_report_dict(a_set: AdditiveSet, report: dict) -> VerificationResult:
    """Check a serialized extraction report against the raw input set.

    Recounts the energy (by sums), r(d) for every difference of A, and
    |A' - A'| from scratch, and confirms the theorem inequalities, the
    branch hypothesis and every witness field the report records.  Raises
    ValueError for an unknown report version, a set from another group or a
    malformed field, as the module docstring lists.
    """
    if report["version"] not in _KNOWN_VERSIONS:
        raise ValueError(f"unknown report version {report['version']!r}")
    spec = a_set.spec
    n = len(a_set)
    eps = _frac(report["params"]["eps"])
    if not 0 < eps < Fraction(1, 2):
        raise ValueError(f"eps must be in (0, 1/2), got {eps}")
    run_both = report["params"]["run_both"]
    if not isinstance(run_both, bool):
        raise ValueError(f"run_both must be true or false, got {run_both!r}")
    case = report["case"]
    recorded = report["input"]
    bounds = report["bounds"]
    achieved = report["achieved"]
    witness = report["witness"]
    a_prime = _parse_in(spec, report["a_prime"], "extracted set")
    m = len(a_prime)
    queries: List[tuple] = []
    if case == "P":
        queries = [_element(spec, witness["d_star"], "d_star")]
    elif case == "Q":
        q_prime = _parse_in(spec, witness["q_prime"], "Q'")
        queries = list(q_prime.elements)
    if case in ("P", "Q"):
        thin_pairs = witness["thin_pairs_in_a_star"]
        if not (_is_int(thin_pairs) and thin_pairs >= 0):
            raise ValueError(f"thin_pairs_in_a_star must be an integer >= 0, got {thin_pairs!r}")

    # E and |A'-A'| replace their passes, or stay the _OverBudget of one not run
    coords = _coordinates(a_set)
    energy = _histogram(coords, "sum", "E (sums of A)")
    if isinstance(energy, _Histogram):
        energy = int(np.square(energy.counts, dtype=np.int64).sum())
    diffs = _histogram(coords, "diff", "r(d) (differences of A)", queries)
    in_a = all(a in a_set.as_set for a in a_prime.elements)
    # A' in A with |A'| = n is A itself
    diff_size = _diff_size(a_prime, in_a and m == n, diffs)

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
    checks.holds("a_prime_subset", "A' <= A", (), lambda: in_a)
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
            f"{d} vs {_bound_str(diff_bound(e))}",
            d <= diff_bound(e),
        ),
    )

    if case == "P":
        _popular_checks(checks, witness, bounds, n, eps, energy, diffs, diff_size, diff_bound_p)
    elif case == "Q":
        _unpopular_checks(checks, a_set, witness, q_prime, m, eps, energy, diffs)
    else:
        checks.add("case_known", (), lambda: ("P or Q", case, False))
    return VerificationResult(tuple(checks.records))


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
            f"{d} vs {_bound_str(diff_bound_p(e))}",
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

    checks.holds(
        "q_prime_unpopular", "r(d)^2 * n < E for d in Q'", (energy, diffs),
        lambda e, h: h.query_counts * h.query_counts * n < e,
    )
    # r(d) = 0 is unpopular too, so only this check finds a d of Q' outside A - A
    checks.holds("q_prime_in_differences", "r(d) >= 1 for d in Q'", (diffs,), lambda h: h.query_counts >= 1)

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
    x_star = _element(spec, witness["x_star"], "x_star")
    checks.holds("x_star_in_input", "x* in A", (), lambda: x_star in a_set.as_set)
    # A* = N(x*) = {a in A : a - x* in Q'}, one lookup per element of A
    members = q_prime.as_set
    a_star_size = sum(
        1 for a in a_set.elements if spec.reduce([c - x for c, x in zip(a, x_star)]) in members
    )
    checks.equal("a_star_size_matches", witness["a_star_size"], (), lambda: a_star_size)
