"""Difference sets, representation counts, and additive energy, exactly.

The central object is the representation table of A - A: for each difference
d it stores r(d), the number of ordered pairs (a, b) in A x A with a - b = d.
From it we read off the energy E(A) = sum of r(d)^2 and the doubling
parameter K = |A|^3 / E(A) as an exact rational.

The table is also the one difference index of the package: every difference
has an int64 code, codes ascend in lexicographic difference order, and
pair_codes gives the codes of a row block of the n x n difference matrix.
build_codec alone picks the code: a mixed-radix code when the coordinates
pack into int64, else the rank of d among the sorted distinct differences.
Everything downstream (partition, membership matrices, relation build) runs
the same numpy path on these codes.  Counting is O(|A|^2); all values are
integers well inside int64, so the counts are exact and independent of
chunking.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Tuple

import numpy as np

from ._codec import Codec, build_codec, row_chunks
from .groups import AdditiveSet, Element, sub

_DECODE_CHUNK = 1 << 16


class RepTable:
    """Counts r(d) over all d in A - A, keyed by ascending int64 codes.

    With a codec (codec is not None) the codes are its mixed-radix codes;
    without one the code of d is its rank among the sorted differences,
    which diffs lists in order.
    """

    def __init__(
        self,
        a_set: AdditiveSet,
        codec: Optional[Codec],
        codes: np.ndarray,
        counts: np.ndarray,
        diffs: Optional[list] = None,
    ) -> None:
        self.a_set = a_set
        self.codec = codec
        self.codes = codes
        self.counts = counts
        self._diffs = diffs

    def __len__(self) -> int:
        return len(self.codes)

    @cached_property
    def _rank(self) -> dict:
        return {d: i for i, d in enumerate(self._diffs)}

    def pair_codes(self, lo: int, hi: int) -> np.ndarray:
        """Codes of a_i - a_j for lo <= i < hi and every j, shape (hi - lo, n)."""
        if self.codec is not None:
            coords = self.codec.coords
            return self.codec.diff_codes(coords[lo:hi], coords)
        spec = self.a_set.spec
        elems = self.a_set.elements
        rank = self._rank
        block = np.empty((hi - lo, len(elems)), dtype=np.int64)
        for row, a in zip(block, elems[lo:hi]):
            row[:] = np.fromiter(
                (rank[sub(spec, a, b)] for b in elems), dtype=np.int64, count=len(elems)
            )
        return block

    def decode(self, codes: np.ndarray) -> list:
        """The differences with the given codes, as element tuples."""
        if self.codec is not None:
            return self.codec.decode(codes)
        return [self._diffs[c] for c in codes.tolist()]

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
    codec = build_codec(a_set)
    if codec is None:
        spec = a_set.spec
        elems = a_set.elements
        tally = Counter(sub(spec, a, b) for a in elems for b in elems)
        diffs = sorted(tally)
        counts = np.fromiter((tally[d] for d in diffs), dtype=np.int64, count=len(diffs))
        codes = np.arange(len(diffs), dtype=np.int64)
        return RepTable(a_set, None, codes, counts, diffs)

    n = len(a_set)
    parts = []
    for lo, hi in row_chunks(n, n):
        block = codec.diff_codes(codec.coords[lo:hi], codec.coords).ravel()
        parts.append(np.unique(block, return_counts=True))
        del block  # free it before the next block is built
    codes, counts = _merge_code_counts(parts)
    return RepTable(a_set, codec, codes, counts)


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
