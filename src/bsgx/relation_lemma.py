"""Extract, from a dense relation on a set, a subset rich in 3-step paths.

Given a relation R on A x A of density delta = |R| / |A|^2 and a slack
parameter xi in (0, 1], this picks an element x* whose neighborhood
A* = N(x*) = {a : (a, x*) in R} is both large and has few "thin" pairs, then
filters A* down to A'.  The guarantee is that every ordered pair (a1, a2) of
A' is joined by at least 2^-7 * delta^4 * xi^4 * |A|^2 * |A'| triples
(x, b, y) with (a1, x), (b, x), (b, y), (a2, y) all in R.

A pair (a, a') is thin when the number of common right-neighbors
|{x : (a, x) in R and (a', x) in R}| is at most delta^2 * xi^2 * |A| / 8;
the set of thin pairs over A^2 is called Omega below.  All thresholds are
exact rational comparisons on integer counts.

The relation is stored as a boolean matrix indexed by the (sorted) elements
of A.  Counting passes run as row-chunked 0/1 matrix products in the float
dtype that _gemm.exact_float picks: float32 while |A| <= 2^24, the bound under
which every entry and partial sum is an exact integer.  Sums of products run
in a dtype checked against their own bound, so the results are exact and
independent of chunking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import FrozenSet, Iterable, Tuple

import numpy as np

from ._codec import row_chunks
from ._gemm import exact_float
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
    def from_index_pairs(
        cls, base: AdditiveSet, pairs: Iterable[Tuple[int, int]]
    ) -> "Relation":
        n = len(base)
        matrix = np.zeros((n, n), dtype=np.bool_)
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"index pair ({i}, {j}) out of range for |A|={n}")
            matrix[i, j] = True
        return cls(base, matrix)

    @classmethod
    def from_difference_set(cls, rep: RepTable, codes: np.ndarray) -> "Relation":
        """The relation {(a, b) : a - b in D} on rep's base set.

        codes lists the rep-table codes of D in ascending order.
        """
        base = rep.a_set
        n = len(base)
        matrix = np.zeros((n, n), dtype=np.bool_)
        if len(codes):
            last = len(codes) - 1
            for lo, hi in row_chunks(n, n):
                block = rep.pair_codes(lo, hi)
                pos = np.searchsorted(codes, block)
                np.minimum(pos, last, out=pos)
                np.equal(codes[pos], block, out=matrix[lo:hi])
        return cls(base, matrix)

    @cached_property
    def size(self) -> int:
        return int(self.matrix.sum(dtype=np.int64))

    @property
    def delta(self) -> Fraction:
        n = len(self.base)
        return Fraction(self.size, n * n)

    @cached_property
    def pairs(self) -> FrozenSet[Tuple[int, int]]:
        ii, jj = np.nonzero(self.matrix)
        return frozenset(zip(ii.tolist(), jj.tolist()))


@dataclass(frozen=True)
class TvWitness:
    """The chosen center, its neighborhood, and the filtered subset."""

    x_star: Element
    a_star: AdditiveSet
    a_prime: AdditiveSet
    omega_card_in_astar: int
    triple_lower_bound: Fraction
    delta: Fraction
    xi: Fraction


def extract_tv(relation: Relation, xi: Fraction) -> TvWitness:
    """Pick x*, form A* = N(x*), filter to A'; all guarantees asserted.

    x* maximizes |N(x)|^2 - 8 * xi^-1 * |N(x)^2 intersect Omega| with ties
    going to the lexicographically smallest element.  A' keeps the a in A*
    with at most |A*| / 4 thin partners inside A*.
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

    gemm_dtype = exact_float(n)
    sum_dtype = exact_float(n * n)
    matrix_f = relation.matrix.astype(gemm_dtype)
    deg = relation.matrix.sum(axis=0, dtype=np.int64)

    if int(np.dot(deg, deg)) * n < r_size * r_size:
        raise InvariantViolation("neighborhood second moment below its floor")

    # thin-pair threshold: common count <= delta^2 * xi^2 * n / 8
    thresh = delta * delta * xi * xi * n / 8
    t_floor = thresh.numerator // thresh.denominator

    omega_weight = np.zeros(n, dtype=np.int64)
    for lo, hi in row_chunks(n, n):
        omega_block = matrix_f[lo:hi] @ matrix_f.T <= t_floor
        if not omega_block.any():
            # no thin pair in these rows: their contribution is exactly zero
            continue
        partner_block = omega_block.astype(gemm_dtype) @ matrix_f
        partner_block *= matrix_f[lo:hi]
        omega_weight += partner_block.sum(axis=0, dtype=sum_dtype).astype(np.int64)

    # score xi * deg^2 - 8 * omega, times xi's denominator, in Python ints;
    # argmax keeps the first maximum, the lexicographically smallest center
    scores = (
        xi.numerator * deg.astype(object) ** 2
        - 8 * xi.denominator * omega_weight.astype(object)
    )
    best_j = int(np.argmax(scores))
    best_score = Fraction(scores[best_j], xi.denominator)
    # selection guarantee: deg^2 - 8 * xi^-1 * omega >= delta^2 * (1 - xi) * n^2
    if best_score / xi < delta * delta * (1 - xi) * n * n:
        raise InvariantViolation("no center reaches the averaged score floor")

    star_idx = np.flatnonzero(relation.matrix[:, best_j])
    n_star = len(star_idx)
    star_f = matrix_f[star_idx]
    common_star = star_f @ star_f.T
    omega_star = common_star <= t_floor
    omega_card = int(omega_star.sum(dtype=np.int64))
    thin_partners = omega_star.sum(axis=1, dtype=np.int64)
    keep = 4 * thin_partners <= n_star
    prime_idx = star_idx[keep]
    if len(prime_idx) == 0:
        raise InvariantViolation("every neighborhood element was filtered out")
    if Fraction(len(prime_idx)) < delta * (1 - xi) * n:
        raise InvariantViolation("filtered subset below its guaranteed size")

    a_star = AdditiveSet(base.spec, tuple(base.elements[i] for i in star_idx))
    a_prime = AdditiveSet(base.spec, tuple(base.elements[i] for i in prime_idx))
    bound = delta**4 * xi**4 * n * n * len(prime_idx) / 128
    return TvWitness(
        x_star=base.elements[best_j],
        a_star=a_star,
        a_prime=a_prime,
        omega_card_in_astar=omega_card,
        triple_lower_bound=bound,
        delta=delta,
        xi=xi,
    )
