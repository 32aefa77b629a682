"""Select a prefix of the largest weights whose sum is provably big.

Input is a vector of weights x_i in [0, 1], each of the form c_i * sqrt(rho)
with an integer count c_i >= 0 and one shared rational rho > 0.  Writing S
for the sum of the x_i and T for the sum of the x_i^2, the selection returns
an index set I (a prefix of the weights sorted descending) whose sum W
satisfies

    W >= alpha * T                                   (mass branch)
    W >= ((1-alpha)^5 |I|^4 T^4 / (2^10 S^2))^(1/6)  (size branch)

for the given alpha in (0, 1).  Every comparison is done on cleared rational
forms: the mass branch squares once to remove sqrt(rho), the cutoff test for
the scan window divides out sqrt(rho), and in the size branch the rho powers
cancel identically, so the whole selection is exact.

The counts are one numpy array of integers, and the selection runs on int64
alone: extract_q passes the representation counts r(d) of the unpopular
differences over the radicand n / E.  Every sum formed (of the counts, of
their squares, a prefix sum) is at most sum(c) * max(c), and counts with
sum(c) * max(c) >= 2^63 are refused; a rep table's, with sum r(d) = n^2 and
max r(d) <= n, stay below n^3 for every n whose n^2 pair scan can run.
S, T and the window end are numpy passes over all weights; the sort and the
prefix sums run over the window alone, and only the size-branch scan
compares Python ints one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvariantViolation

_LIMIT = 1 << 63


@dataclass(frozen=True, eq=False)
class PrefixSelection:
    """A chosen prefix of the stable descending order, with its certified sum.

    The order sorts the weight_count weights descending, ties kept in
    original order.  index_set holds the first chosen_i entries of it (0-based
    original indices) as a sorted int64 array; certified_coeff is the sum of
    their counts, so the certified sum is W = certified_coeff * sqrt(rho);
    window_lo is the shortest prefix length the scan was allowed to consider.
    """

    weight_count: int
    chosen_i: int
    index_set: np.ndarray
    certified_coeff: int
    window_lo: int


def select_index_set(coeffs: np.ndarray, rho: Fraction, alpha: Fraction) -> PrefixSelection:
    """Pick the shortest certified prefix of the descending order of coeffs * sqrt(rho).

    coeffs is a nonempty 1-d int or uint array of counts >= 0, not all zero,
    with max(c)^2 * rho <= 1 and sum(c) * max(c) < 2^63; anything else is a
    ValueError.  The scan window is [k, l] where k is the smallest prefix
    length whose sum reaches alpha * T and l is the largest index whose
    weight is at least (1 - alpha) * T / (2 * S); the first prefix length in
    the window satisfying the size branch is returned.  A valid length always
    exists, so running out of window means the implementation is wrong, not
    the input.
    """
    alpha, rho = Fraction(alpha), Fraction(rho)
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if rho <= 0:
        raise ValueError(f"radicand must be > 0, got {rho}")
    # a tuple or list has no ndim, so only numpy arrays get past this
    if getattr(coeffs, "ndim", None) != 1 or coeffs.dtype.kind not in "iu" or not len(coeffs):
        raise ValueError("counts must be a nonempty 1-d array of integers")
    top, low = int(coeffs.max()), int(coeffs.min())
    if low < 0 or top == 0:
        raise ValueError(f"counts must be >= 0 and not all zero, got {low} to {top}")
    if top * top * rho > 1:
        raise ValueError(f"weight {top}*sqrt({rho}) exceeds 1")
    # sum(c) >= max(c), so max(c)^2 < 2^63 comes first; then each run of
    # 2^63 // max(c) counts, more than 2^31 of them, sums exactly in int64
    if top * top < _LIMIT:
        coeffs = coeffs.astype(np.int64, copy=False)
        step = _LIMIT // top
        c1 = sum(int(coeffs[i : i + step].sum()) for i in range(0, len(coeffs), step))
    if top * top >= _LIMIT or c1 * top >= _LIMIT:
        raise ValueError("sum * max of the counts passes 2^63")
    a, b = alpha.numerator, alpha.denominator
    c2 = int(np.dot(coeffs, coeffs))

    # T <= S, i.e. c2^2 * rho <= c1^2, is forced by every weight being <= 1
    if c2 * c2 * rho.numerator > c1 * c1 * rho.denominator:
        raise InvariantViolation("sum of squares exceeds sum of weights")

    # l counts the weights clearing (1 - alpha) * T / (2 * S), i.e. the
    # integer c >= (b - a) * c2 / (2 * b * c1); the top weight always does,
    # because 2 * c1 * c_max >= 2 * c2 > (1 - alpha) * c2
    cut = -(-(b - a) * c2 // (2 * b * c1))
    # they are the first l of the stable descending order: sort them alone
    window = np.flatnonzero(coeffs >= cut)
    order = window[np.argsort(-coeffs[window], kind="stable")]
    ell = len(order)

    prefix = np.cumsum(coeffs[order])

    # k is the smallest prefix length with prefix^2 >= alpha^2 * c2^2 * rho,
    # i.e. prefix >= floor_p, the least integer whose square clears it
    need = -(-(a * a * c2 * c2 * rho.numerator) // (b * b * rho.denominator))
    floor_p = math.isqrt(need - 1) + 1
    if int(prefix[ell - 1]) < floor_p:
        raise InvariantViolation(f"no prefix of length <= {ell} reaches the mass floor")
    k = int(np.searchsorted(prefix, floor_p, side="left")) + 1

    # size branch 1024 * p^6 * c1^2 >= (1 - alpha)^5 * c2^4 * i^4, times b^5
    lhs_factor = 1024 * c1 * c1 * b**5
    rhs_factor = (b - a) ** 5 * c2**4
    for i in range(k, ell + 1):
        p = int(prefix[i - 1])
        if lhs_factor * p**6 >= rhs_factor * i**4:
            return PrefixSelection(
                weight_count=len(coeffs),
                chosen_i=i,
                index_set=np.sort(order[:i]),
                certified_coeff=p,
                window_lo=k,
            )
    raise InvariantViolation("no prefix in the scan window was certified")
