"""Extract, from a dense relation on a set, a subset rich in 3-step paths.

Given a relation R on A x A of density delta = |R| / |A|^2 and a slack
parameter xi in (0, 1], this picks an element x* whose neighborhood
A* = N(x*) = {a : (a, x*) in R} is both large and has few "thin" pairs, then
filters A* down to A'.  The guarantee is that every ordered pair (a1, a2) of
A' is joined by at least 2^-7 * delta^4 * xi^4 * |A|^2 * |A'| triples
(x, b, y) with (a1, x), (b, x), (b, y), (a2, y) all in R.

A pair (a, a') is thin when the number of common right-neighbors
|{x : (a, x) in R and (a', x) in R}| is at most delta^2 * xi^2 * |A| / 8.
The analysis only ever counts thin pairs inside a neighborhood N(x), and
every pair of N(x)^2 has x as a common neighbor, so a pair with none is
never counted: Omega below is the set of pairs with at least one and at
most delta^2 * xi^2 * |A| / 8 common neighbors, and it is empty, with no
product formed, when that bound is below 1.  All thresholds are exact
rational comparisons on integer counts.

The relation is stored as a boolean matrix indexed by the (sorted) elements
of A.  Counting passes run as row-chunked 0/1 matrix products in the float
dtype that exact_float picks: float32 while |A| <= 2^24, the bound under
which every entry and partial sum is an exact integer.  Sums of products run
in a dtype checked against their own bound, so the results are exact and
independent of chunking.

Both branches of the extraction end in the same step, which lives here:
pick_slice takes the candidate slice (a neighborhood N(x) here, a popular
difference slice A_d in bsg.extract_p) whose size squared best outweighs its
thin pairs (thin_pairs_per_slice), and filters it with drop_thin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._codec import row_chunks
from .additive_stats import RepTable
from .errors import InvariantViolation
from .groups import AdditiveSet, Element


class Relation:
    """A binary relation on A x A, stored as a boolean index matrix."""

    def __init__(self, base: AdditiveSet, matrix: np.ndarray) -> None:
        n = len(base)
        if matrix.shape != (n, n) or matrix.dtype != np.bool_:
            raise ValueError("relation matrix must be boolean of shape (|A|, |A|)")
        self.base = base
        self.matrix = matrix

    @classmethod
    def from_difference_set(cls, rep: RepTable, codes: np.ndarray) -> "Relation":
        """The relation {(a, b) : a - b in D} on rep's base set.

        codes lists the rep-table codes of D in ascending order; each row block
        is written by RepTable.lookup's membership map: a gather from a table
        over the code range, or over its pages that hold codes of D, or a search.
        """
        base = rep.a_set
        n = len(base)
        matrix = np.zeros((n, n), dtype=np.bool_)
        if len(codes):
            in_d = rep.lookup(codes)
            for lo, hi in row_chunks(n, n):
                in_d(rep.pair_codes(lo, hi), out=matrix[lo:hi])
        return cls(base, matrix)

    @cached_property
    def size(self) -> int:
        return int(self.matrix.sum(dtype=np.int64))

    @property
    def delta(self) -> Fraction:
        n = len(self.base)
        return Fraction(self.size, n * n)


def exact_float(bound: int) -> type:
    """The narrowest float dtype holding every integer in [0, bound] exactly.

    In a 0/1 product with inner length k every entry, and every partial sum
    in any summation order, is an integer in [0, k].  float32 holds every
    integer up to 2^24 exactly and float64 every integer up to 2^53, so a
    BLAS product is exact in float32 while k <= 2^24, at half the memory and
    time of float64.  This is the one place that bound is checked: callers
    ask for each GEMM (bound: the inner length) and each sum of GEMM entries
    (bound: its largest total, e.g. n^2 for n entries of at most n).
    """
    if bound <= 1 << 24:
        return np.float32
    if bound <= 1 << 53:
        return np.float64
    raise InvariantViolation(f"integers up to {bound} are not exact in float64")


def thin_pairs_per_slice(members: np.ndarray, thin: np.ndarray) -> np.ndarray:
    """The thin pairs inside each slice, as an int64 count per slice.

    members is an n x k 0/1 matrix with one slice per column and thin the
    n x n boolean thin-pair matrix; slice t counts
    sum over i, j of members[i, t] * thin[i, j] * members[j, t].  A row i
    with no thin pair adds nothing, so the product runs over the others only.
    """
    n = len(thin)
    # entries of thin @ members are at most n and a column sum of n of them
    # at most n^2
    gemm_dtype = exact_float(n)
    sum_dtype = exact_float(n * n)
    members_f = members.astype(gemm_dtype, copy=False)
    counts = np.zeros(members.shape[1], dtype=np.int64)
    thin_rows = np.flatnonzero(thin.any(axis=1))
    for lo, hi in row_chunks(len(thin_rows), n):
        rows = thin_rows[lo:hi]
        partner_block = thin[rows].astype(gemm_dtype) @ members_f
        partner_block *= members_f[rows]
        counts += partner_block.sum(axis=0, dtype=sum_dtype).astype(np.int64)
        del partner_block  # free it before the next block is built
    return counts


def drop_thin(rows: np.ndarray, thin: np.ndarray) -> np.ndarray:
    """The rows with at most len(rows) / 4 thin partners among rows."""
    inside = np.zeros(len(thin), dtype=np.bool_)
    inside[rows] = True
    partners = np.count_nonzero(thin[rows] & inside, axis=1)
    return rows[4 * partners <= len(rows)]


def pick_slice(members: np.ndarray, sizes: np.ndarray, thin: "np.ndarray | None",
               weight: Fraction, penalty: int, second=0) -> tuple:
    """The slice t of members with the top score, its thin pairs, rows and kept rows.

    Slice t (column t of members, with sizes[t] rows) scores
    weight * sizes[t]^2 - penalty * (thin pairs inside it), in Python ints
    times weight's denominator.  Equal scores go to the larger second[t]
    (second lies in [0, n]), then to the first t: one argmax of
    score * (n + 1) + second.  The kept rows are those drop_thin keeps; with
    thin None no pair is thin, no product runs and every row is kept.
    """
    if thin is None:
        thin_counts = np.zeros(members.shape[1], dtype=np.int64)
    else:
        thin_counts = thin_pairs_per_slice(members, thin)
    scores = weight.numerator * sizes.astype(object) ** 2
    scores -= penalty * weight.denominator * thin_counts.astype(object)
    t = int(np.argmax(scores * (len(members) + 1) + np.asarray(second, dtype=object)))
    rows = np.flatnonzero(members[:, t])
    return t, int(thin_counts[t]), rows, rows if thin is None else drop_thin(rows, thin)


@dataclass(frozen=True)
class TvWitness:
    """The chosen center x*, A* = N(x*), the filtered subset A' and their counts.

    omega_card_in_astar counts the ordered thin pairs of A*^2 and delta is
    the relation's density; with the slack xi the filter ran with, it gives
    the path floor that A' meets.  a_prime_rows holds the indices of A' in
    the relation's base set.
    """

    x_star: Element
    a_star: AdditiveSet
    a_prime: AdditiveSet
    omega_card_in_astar: int
    delta: Fraction
    a_prime_rows: np.ndarray = field(compare=False, repr=False)


def extract_tv(relation: Relation, xi: Fraction) -> TvWitness:
    """Pick x*, form A* = N(x*), filter to A'; all guarantees asserted.

    x* maximizes |N(x)|^2 - 8 * xi^-1 * |N(x)^2 intersect Omega| with ties
    going to the lexicographically smallest element.  A' keeps the a in A*
    with at most |A*| / 4 thin partners inside A*.  Omega holds the pairs
    with 1 <= common <= t for t = floor(delta^2 * xi^2 * n / 8): a pair of
    N(x)^2 shares x, so leaving out the pairs with no common neighbor
    changes no count inside a neighborhood, and at t = 0 nothing is thin.
    """
    xi = Fraction(xi)
    if not 0 < xi <= 1:
        raise ValueError(f"xi must be in (0, 1], got {xi}")
    base = relation.base
    n = len(base)
    r_size = relation.size
    if r_size == 0:
        raise ValueError("relation must be nonempty")
    delta = Fraction(r_size, n * n)

    deg = relation.matrix.sum(axis=0, dtype=np.int64)

    if int(np.dot(deg, deg)) * n < r_size * r_size:
        raise InvariantViolation("neighborhood second moment below its floor")

    # thin-pair threshold: common count <= delta^2 * xi^2 * n / 8
    thresh = delta * delta * xi * xi * n / 8
    t_floor = thresh.numerator // thresh.denominator
    members, omega = relation.matrix, None
    if t_floor:
        members = relation.matrix.astype(exact_float(n))
        # Omega is symmetric: form each row block on and right of the diagonal,
        # then mirror it into the column block below
        omega = np.empty((n, n), dtype=np.bool_)
        for lo, hi in row_chunks(n, n):
            common = members[lo:hi] @ members[lo:].T
            block = omega[lo:hi, lo:]
            # at most t_floor common neighbors, and at least one
            np.less_equal(common, t_floor, out=block)
            np.logical_and(block, common, out=block)
            omega[hi:, lo:hi] = omega[lo:hi, hi:].T
            del common  # free it before the next block is built

    # the first maximum of xi * deg^2 - 8 * omega is the smallest center
    best_j, omega_star, star_idx, prime_idx = pick_slice(members, deg, omega, xi, 8)
    # selection guarantee: deg^2 - 8 * xi^-1 * omega >= delta^2 * (1 - xi) * n^2
    if int(deg[best_j]) ** 2 - 8 * omega_star / xi < delta * delta * (1 - xi) * n * n:
        raise InvariantViolation("no center reaches the averaged score floor")

    if len(prime_idx) == 0:
        raise InvariantViolation("every neighborhood element was filtered out")
    if Fraction(len(prime_idx)) < delta * (1 - xi) * n:
        raise InvariantViolation("filtered subset below its guaranteed size")

    return TvWitness(
        x_star=base.elements[best_j],
        a_star=base.subset(star_idx),
        a_prime=base.subset(prime_idx),
        omega_card_in_astar=omega_star,
        delta=delta,
        a_prime_rows=prime_idx,
    )
