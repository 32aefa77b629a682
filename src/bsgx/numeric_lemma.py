"""Select a prefix of the largest weights whose sum is provably big.

Input is a vector of weights x_i in [0, 1], each of the form c_i * sqrt(rho)
with an integer c_i >= 0 and one shared rational rho > 0.  Writing S for the
sum of the x_i and T for the sum of the x_i^2, the selection returns an index
set I (a prefix of the weights sorted descending) whose sum W satisfies

    W >= alpha * T                                   (mass branch)
    W >= ((1-alpha)^5 |I|^4 T^4 / (2^10 S^2))^(1/6)  (size branch)

for the given alpha in (0, 1).  Every comparison is done on cleared rational
forms: the mass branch squares once to remove sqrt(rho), the cutoff test for
the scan window divides out sqrt(rho), and in the size branch the rho powers
cancel identically, so the whole selection is exact.

The coefficients are one numpy array of integers: the caller passes the
representation counts r(d) over the radicand n / E as int64, and
WeightVector checks them without boxing their millions of entries.  Weights
given as rationals c / L take this form after (c, rho) -> (L * c, rho / L^2),
in an object array of Python ints when L * c passes int64.  The selection
runs on int64 when len * max^2 (which bounds every sum it forms) fits, else
on an object array of Python ints.  S, T and the window end are numpy
passes over all weights; the sort and the prefix sums run over the window
alone, and only the size-branch scan compares Python ints one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from .errors import InvariantViolation

_INT64_LIMIT = 1 << 63


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Weights x_i = coeffs[i] * sqrt(rho), each in [0, 1], not all zero.

    coeffs is a 1-d numpy array of integers, kept as it is: an int or uint
    dtype, or object dtype holding Python ints past int64.
    """

    rho: Fraction
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", Fraction(self.rho))
        coeffs = self.coeffs
        # a tuple or list has no ndim, so only numpy arrays get past this
        if getattr(coeffs, "ndim", None) != 1 or not (
            coeffs.dtype.kind in "iu"
            or coeffs.dtype == object and all(type(c) is int for c in coeffs.tolist())
        ):
            raise ValueError("coefficients must be a 1-d array of integers")
        if self.rho <= 0:
            raise ValueError(f"radicand must be > 0, got {self.rho}")
        if not len(coeffs):
            raise ValueError("weight vector must be nonempty")
        top = int(coeffs.max())
        low = int(coeffs.min())
        if low < 0:
            raise ValueError(f"weights must be >= 0, got coefficient {low}")
        if top == 0:
            raise ValueError("weights must not all be zero")
        if top * top * self.rho > 1:
            raise ValueError(f"weight {top}*sqrt({self.rho}) exceeds 1")

    def __len__(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True, eq=False)
class PrefixSelection:
    """A chosen prefix of the stable descending order, with its certified sum.

    order holds the first window_hi entries of the permutation (0-based
    original indices, int64) sorting the weight_count weights descending
    with ties kept in original order: the scan window's weights, in scan
    order; index_set lists the first chosen_i of them, sorted ascending;
    certified_coeff is the sum of their coefficients, so the certified sum
    is W = certified_coeff * sqrt(rho) on the weight vector's rho;
    window_lo and window_hi are the bounds of the prefix lengths the scan was
    allowed to consider.
    """

    order: np.ndarray
    weight_count: int
    chosen_i: int
    index_set: Tuple[int, ...]
    certified_coeff: int
    window_lo: int
    window_hi: int


def _integer_coeffs(xs: WeightVector) -> np.ndarray:
    """The coefficients as int64, or as Python ints when int64 sums could overflow."""
    top = int(xs.coeffs.max())
    # every sum formed below is at most len * top^2
    dtype = np.int64 if len(xs) * top * top < _INT64_LIMIT else object
    return xs.coeffs.astype(dtype, copy=False)


def select_index_set(xs: WeightVector, alpha: Fraction) -> PrefixSelection:
    """Pick the shortest certified prefix of the descending weight order.

    The scan window is [k, l] where k is the smallest prefix length whose
    sum reaches alpha * T and l is the largest index whose weight is at
    least (1 - alpha) * T / (2 * S); the first prefix length in the window
    satisfying the size branch is returned.  A valid length always exists,
    so running out of window means the implementation is wrong, not the
    input.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    a, b = alpha.numerator, alpha.denominator

    coeffs = _integer_coeffs(xs)
    rho = xs.rho
    c1 = int(coeffs.sum())
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
                order=order,
                weight_count=len(xs),
                chosen_i=i,
                index_set=tuple(np.sort(order[:i]).tolist()),
                certified_coeff=p,
                window_lo=k,
                window_hi=ell,
            )
    raise InvariantViolation("no prefix in the scan window was certified")
