"""Difference sets, representation counts, and additive energy, exactly.

The central object is the representation table of A - A: for each difference
d it stores r(d), the number of ordered pairs (a, b) in A x A with a - b = d.
From it we read off the energy E(A) = sum of r(d)^2 and the doubling
parameter K = |A|^3 / E(A) as an exact rational.

Counting is O(|A|^2).  When the coordinates are small enough to pack into
int64 codes the pair scan runs as chunked numpy work over difference codes;
all intermediate values are integers well inside int64, so the counts are
exact and independent of chunking and thread schedule.  Otherwise a plain
dictionary scan over Python integers is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Tuple

import numpy as np

from ._codec import Codec, build_codec, row_chunks
from ._parallel import chunked_map
from .groups import AdditiveSet, Element, sub

_DECODE_CHUNK = 1 << 16


class RepTable:
    """Counts r(d) over all d in A - A, in lexicographic key order."""

    def __init__(
        self,
        a_set: AdditiveSet,
        codec: Optional[Codec],
        codes: Optional[np.ndarray],
        counts: Optional[np.ndarray],
        entries: Optional[dict],
    ) -> None:
        self.a_set = a_set
        self.codec = codec
        self.codes = codes
        self.counts = counts
        self.entries = entries
        self._sorted_keys: Optional[list] = None

    def __len__(self) -> int:
        if self.entries is not None:
            return len(self.entries)
        return len(self.codes)

    def count(self, d: Element) -> int:
        """r(d); zero when d is not a difference of the base set."""
        d = self.a_set.spec.reduce(d)
        if self.entries is not None:
            return self.entries.get(d, 0)
        for c, lo, radix in zip(d, self.codec.lows, self.codec.radices):
            if not lo <= c < lo + radix:
                return 0
        code = self.codec.encode(np.array(d, dtype=np.int64))
        i = int(np.searchsorted(self.codes, code))
        if i < len(self.codes) and self.codes[i] == code:
            return int(self.counts[i])
        return 0

    def items(self) -> Iterator[Tuple[Element, int]]:
        """(difference, count) pairs in lexicographic difference order."""
        if self.entries is not None:
            if self._sorted_keys is None:
                self._sorted_keys = sorted(self.entries)
            for d in self._sorted_keys:
                yield d, self.entries[d]
            return
        for start in range(0, len(self.codes), _DECODE_CHUNK):
            block = slice(start, start + _DECODE_CHUNK)
            for d, c in zip(self.codec.decode(self.codes[block]), self.counts[block]):
                yield d, int(c)

    def total_pairs(self) -> int:
        if self.entries is not None:
            return sum(self.entries.values())
        return int(self.counts.sum())

    def energy_sum(self) -> int:
        if self.entries is not None:
            return sum(c * c for c in self.entries.values())
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


def rep_table(a_set: AdditiveSet, threads: int = 1) -> RepTable:
    """Count every ordered pairwise difference of a_set."""
    codec = build_codec(a_set)
    if codec is None:
        spec = a_set.spec
        entries: dict = {}
        for a in a_set.elements:
            for b in a_set.elements:
                d = sub(spec, a, b)
                entries[d] = entries.get(d, 0) + 1
        return RepTable(a_set, None, None, None, entries)

    n = len(a_set)

    def scan(chunk: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
        lo, hi = chunk
        block = codec.diff_codes(codec.coords[lo:hi], codec.coords).ravel()
        return np.unique(block, return_counts=True)

    parts = chunked_map(scan, row_chunks(n, n), threads)
    codes, counts = _merge_code_counts(parts)
    return RepTable(a_set, codec, codes, counts, None)


def energy(
    a_set: AdditiveSet,
    rep: Optional[RepTable] = None,
    threads: int = 1,
) -> EnergyReport:
    """Energy E(A) = sum of r(d)^2 with K = |A|^3 / E(A) in lowest terms."""
    if rep is None:
        rep = rep_table(a_set, threads=threads)
    n = len(a_set)
    e_val = rep.energy_sum()
    return EnergyReport(
        set_size=n,
        energy=e_val,
        diff_size=len(rep),
        K=Fraction(n**3, e_val),
    )


def difference_set(a_set: AdditiveSet, rep: Optional[RepTable] = None) -> AdditiveSet:
    """The set A - A of all ordered pairwise differences, canonicalized."""
    if rep is None:
        rep = rep_table(a_set)
    elems = tuple(d for d, _ in rep.items())
    return AdditiveSet(a_set.spec, elems)
