"""Pack bounded-coordinate elements into int64 codes for bulk counting.

Each element (or pairwise difference) is mapped to a single int64 by a
mixed-radix positional code that is monotone with respect to lexicographic
order on coordinate tuples, so sorting codes sorts elements.  One shared
radix vector covers both the base set and all of its pairwise differences:
cyclic coordinates use [0, m) and free coordinates use the hull of the
coordinate range and its difference range.  When the combined range product
cannot fit safely below 2**62, build_codec returns None, and the rep table
codes each difference by its rank among the sorted differences instead.
build_codec is called only there, so that is the one place the choice is
made; every later stage runs the same numpy path on either kind of code.

Every n x n scan in the package walks its rows in blocks of about
BLOCK_CELLS cells (row_chunks), so the int64 code buffers, the boolean
matrices built from them and the float blocks of the GEMMs stay a few tens
of MB whatever the set size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .groups import AdditiveSet, GroupSpec

# caps chosen so every intermediate in encode() and diff_codes() stays
# strictly inside int64
_COORD_CAP = 1 << 61
_CODE_CAP = 1 << 62

BLOCK_CELLS = 1 << 21


def row_chunks(rows: int, width: int) -> list:
    """(lo, hi) row ranges covering rows, each about BLOCK_CELLS / width rows."""
    step = max(1, BLOCK_CELLS // max(width, 1))
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


@dataclass
class Codec:
    """Mixed-radix lexicographic code for one set and its differences."""

    spec: GroupSpec
    lows: np.ndarray
    radices: np.ndarray
    strides: np.ndarray
    coords: np.ndarray

    def encode(self, mat: np.ndarray) -> np.ndarray:
        """Codes of canonical coordinate rows (last axis is the coordinate)."""
        return (mat - self.lows) @ self.strides

    def diff_codes(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Codes of left[i] - right[j], shape (len(left), len(right)).

        Built one coordinate at a time in a single int64 buffer.  Both inputs
        are canonical, so a cyclic difference lies in (-m, m) and one added m
        where it is negative reduces it; a free difference lies in
        [lows[j], lows[j] + radices[j]).  Each shifted digit is below its
        radix and the running code below the radix product, which is at most
        _CODE_CAP.
        """
        codes = np.empty((len(left), len(right)), dtype=np.int64)
        digit = np.empty_like(codes) if self.spec.dim > 1 else codes
        for j, m in enumerate(self.spec.moduli):
            out = codes if j == 0 else digit
            np.subtract(left[:, j, None], right[None, :, j], out=out)
            if m:
                np.add(out, m, out=out, where=out < 0)
            elif self.lows[j]:
                out -= self.lows[j]
            if self.strides[j] != 1:
                out *= self.strides[j]
            if j:
                codes += out
        return codes

    def decode(self, codes: np.ndarray) -> list:
        """Invert encode(): int64 codes back to element tuples."""
        rows = []
        digits = np.empty((len(codes), self.spec.dim), dtype=np.int64)
        for j in range(self.spec.dim):
            digits[:, j] = (codes // self.strides[j]) % self.radices[j]
        digits += self.lows
        for row in digits:
            rows.append(tuple(int(c) for c in row))
        return rows


def build_codec(a_set: AdditiveSet) -> Optional[Codec]:
    """Build a codec for a_set, or None when int64 cannot hold the codes."""
    spec = a_set.spec
    lows = []
    radices = []
    for j, m in enumerate(spec.moduli):
        col = [e[j] for e in a_set.elements]
        mn, mx = min(col), max(col)
        if m:
            lo, hi = 0, m - 1
        else:
            lo = min(mn, mn - mx)
            hi = max(mx, mx - mn)
        if max(abs(lo), abs(hi)) > _COORD_CAP:
            return None
        lows.append(lo)
        radices.append(hi - lo + 1)
    product = 1
    for r in radices:
        product *= r
        if product > _CODE_CAP:
            return None
    strides = [1] * spec.dim
    for j in range(spec.dim - 2, -1, -1):
        strides[j] = strides[j + 1] * radices[j + 1]
    coords = np.array(a_set.elements, dtype=np.int64)
    return Codec(
        spec=spec,
        lows=np.array(lows, dtype=np.int64),
        radices=np.array(radices, dtype=np.int64),
        strides=np.array(strides, dtype=np.int64),
        coords=coords,
    )
