"""Pack the pairwise differences of a set into mixed-radix codes for bulk counting.

Each difference gets one integer code, monotone in lexicographic order on
coordinate tuples, so sorting codes sorts differences.  Cyclic coordinates
use the digit range [0, m), free ones the hull of the coordinate range and
its difference range.  reduced_codec codes a Freiman-isomorphic copy of the
set: a free coordinate is shifted by its minimum, and every coordinate, and
a cyclic modulus m, is divided by the gcd g of its values (Z_m becomes
Z_(m/g)).  Both maps keep differences and their order, so the counts are
those of the original set, and decode multiplies the digits back by g.  The
codes take the narrowest of int16, int32 and int64 whose caps (_CAPS) hold
them, else Python ints in object arrays.  Reduction only shrinks ranges, so
no set gets wider codes than its raw coordinates would.  build_codec codes
the raw coordinates, or returns None when they do not pack; nothing counts
with it, it only marks sets whose raw coordinates are too wide.

diff_codes codes x - y from element codes c(v) = sum_j v_j strides[j]: digit
j is x_j - y_j - lows[j] (lows[j] = 0 on a cyclic coordinate), plus m_j where
a cyclic x_j < y_j, so the code is c(x - lows) - c(y) plus those wraps.  On
reduced coordinates x_j - lows[j] and y_j lie in [0, radices[j]), so both
element codes lie in [0, size), size the radix product (at most the dtype's
cap in _CAPS), their difference in (-size, size), and each wrap only raises
a negative partial sum toward the final code in [0, size).

Every n x n scan in the package walks its rows in blocks of about
BLOCK_CELLS cells (row_chunks), so the code buffers, the boolean matrices
built from them and the float blocks of the GEMMs stay a few tens of MB
whatever the set size.  BLOCK_CELLS also bounds each level of the code
table of RepTable.lookup, the one code lookup: one level over the code range,
else pages of it and the pages that hold keys, else a binary search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .groups import AdditiveSet

# (coordinate bound cap, radix product cap) of each b-bit code dtype, narrowest
# first: 2**(b-3) and 2**(b-2) keep every intermediate of diff_codes() inside it
_CAPS = {np.dtype(f"int{b}"): (1 << b - 3, 1 << b - 2) for b in (16, 32, 64)}

BLOCK_CELLS = 1 << 21


def row_chunks(rows: int, width: int, cells: Optional[int] = None) -> list:
    """(lo, hi) row ranges covering rows, each about cells (BLOCK_CELLS) / width rows."""
    step = max(1, (cells or BLOCK_CELLS) // max(width, 1))
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


@dataclass
class Codec:
    """Mixed-radix lexicographic code for the differences of one set.

    Digit j decodes to scales[j] times itself; the arrays have the code
    dtype, the narrowest in _CAPS that holds the codes, or object.
    """

    moduli: tuple
    lows: np.ndarray
    radices: np.ndarray
    strides: np.ndarray
    scales: tuple

    def diff_codes(self, left: np.ndarray, right: np.ndarray, out=None) -> np.ndarray:
        """Codes of left[i] - right[k], shape (len(left), len(right)).

        Built in out, or a new buffer of the inputs' dtype: one subtraction
        of element codes, c(left[i] - lows) - c(right[k]), then for each
        cyclic coordinate j, m_j strides[j] added where left[i, j] < right[k, j].
        See the module docstring for the bound that keeps it in the dtype.
        """
        codes = np.empty((len(left), len(right)), dtype=left.dtype) if out is None else out
        np.subtract(((left - self.lows) @ self.strides)[:, None], (right @ self.strides)[None, :], out=codes)
        for j, m in enumerate(self.moduli):
            if m:
                np.add(codes, m * self.strides[j], out=codes, where=left[:, j, None] < right[None, :, j])
        return codes

    def decode(self, codes: np.ndarray) -> list:
        """The differences with the given codes, as element tuples."""
        digits = np.empty((len(codes), len(self.moduli)), dtype=codes.dtype)
        for j in range(len(self.moduli)):
            digits[:, j] = (codes // self.strides[j]) % self.radices[j]
        digits += self.lows
        # Python ints from here on: a scale may exceed int64
        return [tuple(c * g for c, g in zip(row, self.scales)) for row in digits.tolist()]


def _radix_codec(moduli: Sequence[int], cols: list, scales: list) -> Codec:
    """The codec of the coordinate columns cols, in the narrowest code dtype."""
    lows = []
    radices = []
    widest = 0
    for m, col in zip(moduli, cols):
        if m:
            lo, hi = 0, m - 1
        else:
            mn, mx = min(col), max(col)
            lo = min(mn, mn - mx)
            hi = max(mx, mx - mn)
        widest = max(widest, abs(lo), abs(hi))
        lows.append(lo)
        radices.append(hi - lo + 1)
    strides = [1] * len(radices)
    for j in range(len(radices) - 2, -1, -1):
        strides[j] = strides[j + 1] * radices[j + 1]
    size = strides[0] * radices[0]
    dtype = next((t for t, (cap, top) in _CAPS.items() if widest <= cap and size <= top), object)
    return Codec(
        moduli=tuple(moduli),
        lows=np.array(lows, dtype=dtype),
        radices=np.array(radices, dtype=dtype),
        strides=np.array(strides, dtype=dtype),
        scales=tuple(scales),
    )


def build_codec(a_set: AdditiveSet) -> Optional[Codec]:
    """The codec of a_set's raw coordinates, or None when not even int64 holds its codes."""
    codec = _radix_codec(a_set.spec.moduli, list(zip(*a_set.elements)), [1] * a_set.spec.dim)
    return codec if codec.strides.dtype != object else None


def reduced_codec(a_set: AdditiveSet) -> Tuple[Codec, np.ndarray]:
    """The codec of a_set's reduced copy and its coordinate rows, one per element."""
    moduli = []
    cols = []
    scales = []
    for m, col in zip(a_set.spec.moduli, zip(*a_set.elements)):
        shift = 0 if m else min(col)
        # gcd(0, ...) ignores the 0, and a constant free coordinate has g = 0
        g = math.gcd(m, *(c - shift for c in col)) or 1
        moduli.append(m // g)
        cols.append([(c - shift) // g for c in col])
        scales.append(g)
    codec = _radix_codec(moduli, cols, scales)
    return codec, np.array(list(zip(*cols)), dtype=codec.strides.dtype)
