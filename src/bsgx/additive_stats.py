"""Difference sets, representation counts, and additive energy, exactly.

The central object is the representation table of A - A: for each difference
d it stores r(d), the number of ordered pairs (a, b) in A x A with a - b = d.
From it we read off the energy E(A) = sum of r(d)^2 and the doubling
parameter K = |A|^3 / E(A) as an exact rational.

The table is also the one difference index of the package: every difference
has a mixed-radix code (see _codec), codes ascend in lexicographic
difference order, and pair_codes gives the codes of a row block of the
n x n difference matrix.  The codes are always those of the gcd-reduced
copy, int64 or Python ints; everything downstream (partition, membership
matrices, relation build) runs the same numpy path on either.  Counting is
O(|A|^2) and exact, and the counts are independent of chunking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Tuple

import numpy as np

from ._codec import Codec, build_codec, reduced_codec, row_chunks
from .groups import AdditiveSet, Element

_DECODE_CHUNK = 1 << 16


class RepTable:
    """Counts r(d) over all d in A - A, keyed by ascending codes.

    coder codes the differences of coords, the reduced copies of a_set's
    elements; codes is int64, or an object array of Python ints when even
    the reduced coordinates do not pack.
    """

    def __init__(
        self,
        a_set: AdditiveSet,
        coder: Codec,
        coords: np.ndarray,
        codes: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        self.a_set = a_set
        self.coder = coder
        self.coords = coords
        self.codes = codes
        self.counts = counts

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def codec(self) -> Optional[Codec]:
        """coder when a_set's raw coordinates pack into int64, else None.

        The route marker perfbench's tracer reads; nothing in the package
        reads it, and the codes do not depend on it.
        """
        return self.coder if build_codec(self.a_set) is not None else None

    def pair_codes(self, lo: int, hi: int) -> np.ndarray:
        """Codes of a_i - a_j for lo <= i < hi and every j, shape (hi - lo, n)."""
        return self.coder.diff_codes(self.coords[lo:hi], self.coords)

    def decode(self, codes: np.ndarray) -> list:
        """The differences with the given codes, as element tuples."""
        return self.coder.decode(codes)

    def items(self) -> Iterator[Tuple[Element, int]]:
        """(difference, count) pairs in lexicographic difference order."""
        for start in range(0, len(self.codes), _DECODE_CHUNK):
            block = slice(start, start + _DECODE_CHUNK)
            yield from zip(self.decode(self.codes[block]), self.counts[block].tolist())

    def energy_sum(self) -> int:
        return int(np.dot(self.counts, self.counts))


@dataclass(frozen=True)
class EnergyReport:
    """Exact size, energy, difference-set size, and K = |A|^3 / E(A)."""

    set_size: int
    energy: int
    diff_size: int
    K: Fraction


def _merge_code_counts(parts: list) -> Tuple[np.ndarray, np.ndarray]:
    """Sum the counts of equal codes over the per-chunk (codes, counts) parts.

    Empties parts once they are copied out, so the per-chunk arrays are
    freed before the sort.
    """
    codes = np.concatenate([p[0] for p in parts])
    counts = np.concatenate([p[1] for p in parts])
    parts.clear()
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    counts = counts[order]
    boundary = np.empty(len(codes), dtype=bool)
    boundary[0] = True
    np.not_equal(codes[1:], codes[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    return codes[starts], np.add.reduceat(counts, starts)


def rep_table(a_set: AdditiveSet) -> RepTable:
    """Count every ordered pairwise difference of a_set."""
    coder, coords = reduced_codec(a_set)
    n = len(a_set)
    parts = []
    for lo, hi in row_chunks(n, n):
        block = coder.diff_codes(coords[lo:hi], coords).ravel()
        parts.append(np.unique(block, return_counts=True))
        del block  # free it before the next block is built
    codes, counts = _merge_code_counts(parts)
    return RepTable(a_set, coder, coords, codes, counts)


def energy(a_set: AdditiveSet) -> EnergyReport:
    """Energy E(A) = sum of r(d)^2 with K = |A|^3 / E(A) in lowest terms."""
    rep = rep_table(a_set)
    n = len(a_set)
    e_val = rep.energy_sum()
    return EnergyReport(
        set_size=n,
        energy=e_val,
        diff_size=len(rep),
        K=Fraction(n**3, e_val),
    )


def difference_set(a_set: AdditiveSet) -> AdditiveSet:
    """The set A - A of all ordered pairwise differences, canonicalized."""
    elems = tuple(d for d, _ in rep_table(a_set).items())
    return AdditiveSet(a_set.spec, elems)
