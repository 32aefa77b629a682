"""End-to-end extraction of a subset with small difference set.

Given a finite subset A of an abelian group, write E for its additive energy
and K = |A|^3 / E for its doubling parameter.  This module splits the
differences of A into popular ones (r(d)^2 * |A| >= E) and the rest, uses
the mass of each part to choose one of two branches, and extracts a subset
A' of A with

    |A'|        >= (1 - eps) * sqrt(E / |A|)      (= (1-eps) * K^(-1/2) * |A|)
    |A' - A'|   <= 2^33 * eps^-9 * K^4 * |A'|

for any rational eps in (0, 1/2).  The popular branch additionally achieves
|A' - A'| <= 2^10 * eps^-4 * K^3 * |A'|.  Every threshold the analysis
writes with a square root is compared after squaring, so the whole pipeline
is exact integer and rational arithmetic.  Floating point appears only
inside the 0/1 matrix products of relation_lemma, whose exactness bound is
checked in one place (exact_float).  relation_lemma.pick_slice scores and
filters candidate slices for two callers: branch P's scan route and
extract_tv, the last step of branch Q.  Branch P first prunes: A_0 = A
holds T0 = (sum of the thin r(d)) thin pairs and no slice scores above
eps * r(d)^2, so only a d with eps * (n^2 - r(d)^2) <= 4 * T0 can win.
With d = 0 alone left A* = A, no slice scan runs and drop_thin filters A
directly; else one scan marks the live slices for pick_slice.  Both routes
read one thin-partner matrix, built by Relation.from_difference_set.
extract runs each branch whose hypothesis holds; at the knife edge
4 * p_mass = eps * E both hold, and it keeps the better result.  The
ExtractionReport stores what was measured and computes the bounds above,
its checks and its branch from that.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional, Tuple, Union

import numpy as np

from ._codec import row_chunks
from .additive_stats import RepTable, rep_table
from .errors import InvariantViolation
from .groups import AdditiveSet, Element, serialize_set
from .numeric_lemma import PrefixSelection, select_index_set
from .relation_lemma import Relation, TvWitness, drop_thin, extract_tv, pick_slice

TOOL_VERSION = "0.1.0"


@dataclass(frozen=True)
class Params:
    """Extraction parameters: rational eps in (0, 1/2)."""

    eps: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", Fraction(self.eps))
        if not 0 < self.eps < Fraction(1, 2):
            raise ValueError(f"eps must be in (0, 1/2), got {self.eps}")


@dataclass(eq=False)
class PartitionPQ:
    """Differences of A split by popularity, with the mass of each side.

    A difference d is popular when r(d)^2 * |A| >= E.  The split is kept
    once, as the bool mask popular over the rep table's rows; the popular
    side, at most |A| differences, is also decoded into p_items with its
    counts.  A itself is rep.a_set.
    """

    rep: RepTable
    p_items: Tuple[Tuple[Element, int], ...]
    p_mass: int
    q_mass: int
    popular: np.ndarray

    @property
    def q_size(self) -> int:
        return len(self.rep) - len(self.p_items)

    @property
    def energy(self) -> int:
        return self.p_mass + self.q_mass

    def p_holds(self, eps: Fraction) -> bool:
        """The popular-branch hypothesis: 4 * p_mass >= eps * E."""
        return 4 * self.p_mass >= eps * self.energy

    def q_holds(self, eps: Fraction) -> bool:
        """The unpopular-branch hypothesis: q_mass >= (1 - eps/4) * E."""
        return self.q_mass >= (1 - eps / 4) * self.energy


def partition_pq(a_set: AdditiveSet) -> PartitionPQ:
    """Split A - A by the exact popularity test r(d)^2 * |A| >= E."""
    rep = rep_table(a_set)
    n = len(a_set)
    e_val = rep.energy_sum()
    counts = rep.counts
    # r(d)^2 * n <= n^3 stays inside int64 for any n whose n^2 scan can run
    popular = counts * counts * n >= e_val
    p_counts = counts[popular]
    p_mass = int(np.dot(p_counts, p_counts))
    p_items = tuple(zip(rep.coder.decode(rep.codes[popular]), p_counts.tolist()))
    zero = a_set.spec.zero()
    if all(d != zero for d, _ in p_items):
        raise InvariantViolation("zero difference missing from the popular side")
    return PartitionPQ(rep, p_items, p_mass, e_val - p_mass, popular)


@dataclass(frozen=True)
class PWitness:
    """Popular-branch witness: the chosen difference and its filter data."""

    d_star: Element
    a_star: AdditiveSet
    thin_threshold: int
    thin_pairs_in_a_star: int


@dataclass(frozen=True)
class QWitness:
    """Unpopular-branch witness: the weight selection and the path filter."""

    selection: PrefixSelection
    q_prime: AdditiveSet
    tv: TvWitness


@dataclass(frozen=True)
class ExtractionReport:
    """What the extraction measured; its bounds and checks are read off it.

    Stored: A, E = E(A), eps, run_both (both branches ran), the witness,
    A' and |A' - A'|.  Every other attribute is computed from them, once per
    report, so dataclasses.replace never leaves one stale; case, the branch,
    is read off the witness's type.  size_bound_sq is the square of the size
    floor (1 - eps) * sqrt(E / n), kept squared so it stays rational;
    diff_bound_p is None off branch P.
    """

    a_set: AdditiveSet
    energy: int
    eps: Fraction
    run_both: bool
    witness: Union[PWitness, QWitness]
    a_prime: AdditiveSet
    diff_size: int

    @property
    def case(self) -> str:
        return "P" if isinstance(self.witness, PWitness) else "Q"

    @property
    def set_size(self) -> int:
        return len(self.a_set)

    @property
    def a_prime_size(self) -> int:
        return len(self.a_prime)

    @cached_property
    def K(self) -> Fraction:
        return Fraction(self.set_size**3, self.energy)

    @cached_property
    def size_bound_sq(self) -> Fraction:
        return (1 - self.eps) ** 2 * Fraction(self.energy, self.set_size)

    @cached_property
    def diff_bound(self) -> Fraction:
        return 2**33 * self.eps**-9 * self.K**4 * self.a_prime_size

    @cached_property
    def diff_bound_p(self) -> Optional[Fraction]:
        return 2**10 * self.eps**-4 * self.K**3 * self.a_prime_size if self.case == "P" else None

    @cached_property
    def checks(self) -> Tuple[Tuple[str, bool], ...]:
        """The certified inequalities, by name, in report order."""
        m, n = self.a_prime_size, self.set_size
        checks = [
            ("size_lower_bound", m * m >= self.size_bound_sq),
            # implied by size_lower_bound: multiply it by E / n and use E >= n^2
            ("size_lower_bound_cleared", m * m * self.energy >= (1 - self.eps) ** 2 * n**3),
            ("diff_upper_bound", self.diff_size <= self.diff_bound),
        ]
        if self.diff_bound_p is not None:
            checks.append(("diff_upper_bound_popular", self.diff_size <= self.diff_bound_p))
        checks.append(("subset_of_input", self.a_prime.as_set <= self.a_set.as_set))
        return tuple(checks)

    def to_json_dict(self) -> dict:
        if isinstance(self.witness, PWitness):
            witness = {
                "d_star": list(self.witness.d_star),
                "a_star_size": len(self.witness.a_star),
                "thin_threshold": self.witness.thin_threshold,
                "thin_pairs_in_a_star": self.witness.thin_pairs_in_a_star,
            }
        else:
            witness = {
                "q_size": self.witness.selection.weight_count,
                "selected_count": self.witness.selection.chosen_i,
                "q_prime_size": len(self.witness.q_prime),
                "q_prime": serialize_set(self.witness.q_prime).decode("utf-8"),
                "delta": _frac_str(self.witness.tv.delta),
                "x_star": list(self.witness.tv.x_star),
                "a_star_size": len(self.witness.tv.a_star),
                "thin_pairs_in_a_star": self.witness.tv.omega_card_in_astar,
            }
        bounds = {
            "size_bound_sq": _frac_str(self.size_bound_sq),
            "diff_bound": _frac_str(self.diff_bound),
        }
        if self.diff_bound_p is not None:
            bounds["diff_bound_p"] = _frac_str(self.diff_bound_p)
        return {
            "version": TOOL_VERSION,
            "params": {"eps": _frac_str(self.eps), "run_both": self.run_both},
            "input": {
                "n": self.set_size,
                "energy": self.energy,
                "K": _frac_str(self.K),
            },
            "case": self.case,
            "witness": witness,
            "a_prime": serialize_set(self.a_prime).decode("utf-8"),
            "bounds": bounds,
            "achieved": {
                "a_prime_size": self.a_prime_size,
                "diff_size": self.diff_size,
            },
            "checks": [
                {"name": name, "pass": ok} for name, ok in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _finish_report(
    pq: PartitionPQ,
    eps: Fraction,
    witness: Union[PWitness, QWitness],
    a_prime: AdditiveSet,
    prime_rows: np.ndarray,
) -> ExtractionReport:
    # A' is A at prime_rows: |A' - A'| is read off A's table by sorting the
    # pairs of A' or the pairs A' loses, whichever are fewer
    diff_size = pq.rep.subset_diff_size(prime_rows)
    report = ExtractionReport(pq.rep.a_set, pq.energy, eps, False, witness, a_prime, diff_size)
    for name, ok in report.checks:
        if not ok:
            raise InvariantViolation(f"certified inequality failed: {name}")
    return report


def _slice_members(rep: RepTable, live: np.ndarray) -> np.ndarray:
    """M[i, t] = (a_i in A_d_t), d_t the t-th difference of the mask live over rep's rows.

    a_i is in A_d exactly when a_i - a_j = d for some j, so M comes from one
    scan of the difference codes: RepTable.lookup of the k live codes to 1..k
    gives each pair a column of an n x (k + 1) matrix, set by one flat scatter
    a block; column 0 collects every other difference and is dropped.
    """
    n = len(rep.a_set)
    k = int(np.count_nonzero(live))
    # the flat index of the last of the n * (k + 1) cells is n * (k + 1) - 1
    col = np.arange(1, k + 1, dtype=np.int32 if n * (k + 1) <= 1 << 31 else np.int64)
    column_of = rep.lookup(rep.codes[live], col)
    cells = np.zeros((n, k + 1), dtype=np.bool_)
    for lo, hi in row_chunks(n, n):
        flat = column_of(rep.pair_codes(lo, hi))
        flat += np.arange(lo * (k + 1), hi * (k + 1), k + 1, dtype=flat.dtype)[:, None]
        cells.reshape(-1)[flat] = True
        del flat  # free it before the next block is built
    return cells[:, 1:]


def extract_p(a_set: AdditiveSet, pq: PartitionPQ, eps: Fraction) -> ExtractionReport:
    """Popular branch: pick the difference whose slice has few thin pairs.

    A pair (x, y) of A^2 is thin when r(x - y) <= eps^2 * E / (16 * n^2).
    For each popular d the slice A_d = A intersect (A + d) has exactly r(d)
    elements; d* maximizes eps * |A_d|^2 - 4 * (thin pairs inside A_d^2),
    with ties broken by larger |A_d| and then lexicographically smaller d.
    A' keeps the elements of A* = A_d* with at most |A*| / 4 thin partners.

    A_0 = A, so d = 0 scores eps * n^2 - 4 * T0 with T0 = sum of the thin
    r(d), and no d scores above eps * r(d)^2: a d with
    eps * (n^2 - r(d)^2) > 4 * T0 scores below d = 0 and is pruned.  With
    d = 0 alone, A* = A, and a row has at most min(T0, #thin d) thin
    partners, one per thin d: past |A| / 4 the thin-partner matrix X filters
    A.  Else one scan marks the live slices and pick_slice scores them
    against X.  X is built once, from the thin codes, when a route reads it.
    """
    eps = Params(eps).eps
    if not pq.p_holds(eps):
        raise ValueError("popular branch requires p_mass >= eps * E / 4")
    n = len(a_set)
    e_val = pq.energy
    rep = pq.rep

    thin_floor = eps * eps * e_val // (16 * n * n)
    thin = rep.counts <= thin_floor
    t0 = int(rep.counts[thin].sum())
    # eps * (n^2 - r^2) <= 4 * T0 with integer n^2 - r^2, at most n^2
    slack = min(4 * eps.denominator * t0 // eps.numerator, n * n)
    live = pq.popular & (rep.counts * rep.counts >= n * n - slack)
    live_t = np.flatnonzero(live[pq.popular])  # the live d's places in p_items
    # X[i, j] = [a_i - a_j is thin], None when T0 = 0 and no pair is thin
    partners = None
    if t0 and (len(live_t) > 1 or 4 * min(t0, np.count_nonzero(thin)) > n):
        partners = Relation.from_difference_set(rep, rep.codes[thin]).matrix

    if len(live_t) == 1:  # d = 0 alone: A* = A with T0 thin pairs
        best_t, s_star, star_rows = 0, t0, np.arange(n)
        prime_rows = star_rows if partners is None else drop_thin(star_rows, partners)
    else:
        m_mat = _slice_members(rep, live)
        slice_sizes = m_mat.sum(axis=0, dtype=np.int64)
        if not np.array_equal(slice_sizes, rep.counts[live]):
            raise InvariantViolation("slice size disagrees with its difference count")
        # equal scores go to the larger slice, then to the lexicographically smaller d
        best_t, s_star, star_rows, prime_rows = pick_slice(
            m_mat, slice_sizes, partners, eps, 4, second=slice_sizes
        )
    d_star = pq.p_items[live_t[best_t]][0]
    m_star = len(star_rows)
    if 4 * s_star > eps * m_star * m_star:
        raise InvariantViolation("chosen slice has too many thin pairs")
    if m_star * m_star * n < e_val:
        raise InvariantViolation("chosen difference is not popular")
    if Fraction(len(prime_rows)) < (1 - eps) * m_star:
        raise InvariantViolation("filtered slice below its guaranteed size")

    witness = PWitness(
        d_star=d_star,
        a_star=a_set.subset(star_rows),
        thin_threshold=thin_floor,
        thin_pairs_in_a_star=s_star,
    )
    return _finish_report(pq, eps, witness, a_set.subset(prime_rows), prime_rows)


def extract_q(a_set: AdditiveSet, pq: PartitionPQ, eps: Fraction) -> ExtractionReport:
    """Unpopular branch: weight selection, then the 3-step path filter.

    The unpopular differences d_1 < d_2 < ... carry weights
    x_i = r(d_i) * sqrt(n / E), each below 1 by unpopularity.  A prefix
    selection with alpha = 1 - eps / 4 picks Q'; the relation
    {(a, b) : a - b in Q'} has density delta >= (1 - eps/2) * K^(-1/2),
    and the path filter with xi = eps / 2 yields A'.
    """
    eps = Params(eps).eps
    if not pq.q_holds(eps):
        raise ValueError("unpopular branch requires q_mass >= (1 - eps/4) * E")
    n = len(a_set)
    e_val = pq.energy

    unpopular = ~pq.popular
    selection = select_index_set(pq.rep.counts[unpopular], Fraction(n, e_val), 1 - eps / 4)
    q_prime_codes = pq.rep.codes[unpopular][selection.index_set]
    # codes ascend with their differences, so Q' is canonical and sorted as decoded
    q_prime = AdditiveSet.from_sorted(a_set.spec, tuple(pq.rep.coder.decode(q_prime_codes)))

    relation = Relation.from_difference_set(pq.rep, q_prime_codes)
    if relation.size != selection.certified_coeff:
        raise InvariantViolation("relation size disagrees with selected counts")
    delta = relation.delta

    if delta * delta < (1 - eps / 2) ** 2 * Fraction(e_val, n**3):
        raise InvariantViolation("relation density below its guaranteed floor")
    chosen = selection.chosen_i
    if Fraction(chosen**4) > 2**21 * eps**-5 * Fraction(n**3, e_val) ** 4 * delta**6 * n**4:
        raise InvariantViolation("selected prefix too long for the path bound")

    tv = extract_tv(relation, eps / 2)
    witness = QWitness(selection=selection, q_prime=q_prime, tv=tv)
    return _finish_report(pq, eps, witness, tv.a_prime, tv.a_prime_rows)


def extract(a_set: AdditiveSet, params: Params) -> ExtractionReport:
    """Full pipeline: partition, run each branch whose hypothesis holds, certify."""
    pq = partition_pq(a_set)
    eps = params.eps
    reports = []
    if pq.p_holds(eps):
        reports.append(extract_p(a_set, pq, eps))
    if pq.q_holds(eps):
        reports.append(extract_q(a_set, pq, eps))
    if not reports:
        raise InvariantViolation("neither branch hypothesis holds")
    # the smaller |A'-A'| / |A'|, then the larger A', then P; min keeps the first
    best = min(reports, key=lambda r: (Fraction(r.diff_size, r.a_prime_size), -r.a_prime_size))
    return replace(best, run_both=True) if len(reports) == 2 else best
