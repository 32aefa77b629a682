"""Difference sets, representation counts, and additive energy, exactly.

The central object is the representation table of A - A: for each difference
d it stores r(d), the number of ordered pairs (a, b) in A x A with a - b = d.
From it we read off the energy E(A) = sum of r(d)^2 and the doubling
parameter K = |A|^3 / E(A) as an exact rational.

The table is also the one difference index of the package: every difference
has a mixed-radix code (see _codec), codes ascend in lexicographic
difference order, pair_codes gives the codes of a row block of the n x n
difference matrix, and lookup, the code lookup of the n^2 scans, maps codes
to values kept per key code (a slice column, membership in D): a gather
from a table over the code range or, in two levels, over its pages, each
level of at most _codec.BLOCK_CELLS cells, else a binary search in the keys.
The codes are those of the gcd-reduced copy, in the narrowest integer dtype
that holds them or Python ints, and the rest of the package runs the same
numpy path on any of them.
Counting sorts the codes of all n^2 pairs once, in place, and reads r(d)
off the run lengths; exact, and independent of chunking.
subset_diff_size counts |A' - A'| for a subset A' of A from the same codes,
sorting the pairs of A' or the pairs A' loses, whichever are fewer, and
searching the codes for the r(d) of each lost run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import _codec
from ._codec import Codec, build_codec, reduced_codec, row_chunks
from .groups import AdditiveSet


@dataclass(eq=False)
class RepTable:
    """Counts r(d) over all d in A - A, keyed by ascending codes.

    coder codes the differences of coords, the reduced copies of a_set's
    elements; codes has coords' dtype (int16, int32, int64 or object, see
    _codec) and counts is int64 whatever that dtype.
    """

    a_set: AdditiveSet
    coder: Codec
    coords: np.ndarray
    codes: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def codec(self) -> Optional[Codec]:
        """coder when a_set's raw coordinates pack into integer codes, else None.

        The route marker perfbench's tracer reads; nothing in the package
        reads it, and the codes do not depend on it.
        """
        return self.coder if build_codec(self.a_set) is not None else None

    def pair_codes(self, lo: int, hi: int) -> np.ndarray:
        """Codes of a_i - a_j for lo <= i < hi and every j, shape (hi - lo, n)."""
        return self.coder.diff_codes(self.coords[lo:hi], self.coords)

    def lookup(self, keys: np.ndarray, values: Optional[np.ndarray] = None) -> Callable:
        """The map from codes to values[t] where a code is keys[t].

        keys ascend, at least one.  With values, every code looked up must be
        a key; with none, the map tells whether a code is a key.  The map
        takes out and leaves its codes as they are.  Its table is built here,
        for the least shift s leaving at most BLOCK_CELLS pages of 2^s codes:
        at s = 0 one level over the code range, one gather a code; else a
        first level holds each page's pre-shifted start in the second, or 0
        for the shared all-miss page, so a code is a shift, gather, mask, or
        and gather.  A second level past BLOCK_CELLS cells, or Python-int
        codes, search keys instead.
        """
        size = int(self.coder.strides[0]) * int(self.coder.radices[0])
        shift = ((size - 1) // _codec.BLOCK_CELLS).bit_length()
        slots, cells, mask = keys, size, (1 << shift) - 1
        if shift and keys.dtype != object:
            pages = keys >> shift
            turns = pages[1:] != pages[:-1]  # where a key starts a new page
            cells = int(np.count_nonzero(turns)) + 2 << shift
        if keys.dtype != object and cells <= _codec.BLOCK_CELLS:
            if shift:
                # page t >= 1 of the second level starts at t << shift, below
                # cells <= BLOCK_CELLS < size, so the code dtype holds it
                starts = np.cumsum(np.concatenate(([1], turns)), dtype=keys.dtype) << shift
                top = np.zeros(-(-size >> shift), keys.dtype)
                top[pages] = starts
                slots = starts | keys & mask
            table = np.zeros(cells, np.bool_ if values is None else values.dtype)
            table[slots] = True if values is None else values

            def gather(codes: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
                out = np.empty(codes.shape, table.dtype) if out is None else out
                # np.take copies its indices as intp: 2^16 cells at a time keep that small
                for lo, hi in row_chunks(len(codes), codes.size // max(len(codes), 1), 1 << 16):
                    block = codes[lo:hi]
                    if shift:
                        block = np.take(top, block >> shift, mode="clip") | block & mask
                    np.take(table, block, out=out[lo:hi], mode="clip")
                return out

            return gather
        if values is not None:
            return lambda codes, out=None: np.take(values, np.searchsorted(keys, codes), out=out)

        def member(codes: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
            pos = np.searchsorted(keys, codes)
            np.minimum(pos, len(keys) - 1, out=pos)
            return np.equal(keys[pos], codes, out=out)

        return member

    def subset_diff_size(self, rows: np.ndarray) -> int:
        """|A' - A'| for A' the elements of a_set at the distinct indices rows.

        Sorts the codes of whichever is fewer: the m^2 pairs of A', or the
        n^2 - m^2 pairs of A^2 that A' loses.  Each pair of A^2 is a pair of
        A'^2 or lost, so d is missing from A' - A' exactly when all r(d) of
        its pairs are lost, each run's r(d) found by one search of the codes;
        A' = A loses none, and sorts nothing.
        """
        n, m = len(self.coords), len(rows)
        if m == n:
            return len(self)
        inner = self.coords[rows]
        if 2 * m * m <= n * n:
            return len(_run_edges(_sorted_pair_codes(self.coder, [(inner, inner)]))) - 1
        kept = np.zeros(n, dtype=bool)
        kept[rows] = True
        outer = self.coords[~kept]
        lost = _sorted_pair_codes(self.coder, [(outer, self.coords), (inner, outer)])
        edges = _run_edges(lost)
        gone = np.diff(edges) == self.counts[np.searchsorted(self.codes, lost[edges[:-1]])]
        return len(self) - int(np.count_nonzero(gone))

    def energy_sum(self) -> int:
        return int(np.dot(self.counts, self.counts))


@dataclass(frozen=True)
class EnergyReport:
    """Exact size, energy, difference-set size, and K = |A|^3 / E(A)."""

    set_size: int
    energy: int
    diff_size: int
    K: Fraction


def _sorted_pair_codes(coder: Codec, blocks: list) -> np.ndarray:
    """The codes of left[i] - right[j] over every (left, right) pair of coordinate
    rows in blocks, in one flat buffer sorted in place."""
    codes = np.empty(sum(len(left) * len(right) for left, right in blocks), dtype=coder.strides.dtype)
    start = 0
    for left, right in blocks:
        width = len(right)
        for lo, hi in row_chunks(len(left), width):
            stop = start + (hi - lo) * width
            coder.diff_codes(left[lo:hi], right, out=codes[start:stop].reshape(hi - lo, width))
            start = stop
    codes.sort()
    return codes


def _run_edges(codes: np.ndarray) -> np.ndarray:
    """The start of each run of equal sorted codes and, last, the end of the final run."""
    # a run starts where a code differs from the one before it
    edges = np.ones(len(codes) + 1, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=edges[1:-1])
    return np.flatnonzero(edges)


def rep_table(a_set: AdditiveSet) -> RepTable:
    """Count every ordered pairwise difference of a_set."""
    coder, coords = reduced_codec(a_set)
    codes = _sorted_pair_codes(coder, [(coords, coords)])
    edges = _run_edges(codes)
    return RepTable(a_set, coder, coords, codes[edges[:-1]], np.diff(edges))


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
