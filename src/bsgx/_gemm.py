"""Exact products of 0/1 matrices in floating point.

BLAS multiplies floats, so the counting passes run their 0/1 products as
float GEMMs.  In a product of 0/1 matrices with inner length k every entry,
and every partial sum formed on the way to it in any summation order, is an
integer in [0, k].  float32 holds every integer up to 2^24 exactly and
float64 every integer up to 2^53, so such a product is exact in float32
while k <= 2^24, at half the memory and time of float64.

exact_float is the one place this bound is checked.  Callers ask it for the
dtype of each GEMM (bound: the inner length) and of each reduction that
adds GEMM entries together (bound: the largest total, e.g. n^2 for a sum of
n entries of at most n), so a reduction that can pass 2^24 runs in float64.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolation

_F32_EXACT = 1 << 24
_F64_EXACT = 1 << 53


def exact_float(bound: int) -> type:
    """The narrowest float dtype holding every integer in [0, bound] exactly."""
    if bound <= _F32_EXACT:
        return np.float32
    if bound <= _F64_EXACT:
        return np.float64
    raise InvariantViolation(f"integers up to {bound} are not exact in float64")
