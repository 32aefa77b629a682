"""Elements of G = Z^d0 x Z_m1 x ... x Z_mk and canonical finite subsets.

Group elements are plain tuples of Python integers, one entry per coordinate.
A modulus of 0 marks a free (integer) coordinate; a modulus m >= 2 marks a
cyclic coordinate stored in the canonical range [0, m).  All arithmetic is
arbitrary precision, so there are no overflow semantics anywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import AsetFormatError

Element = tuple  # tuple[int, ...], one integer per coordinate


@dataclass(frozen=True)
class GroupSpec:
    """Shape of the ambient group: one modulus per coordinate (0 = free)."""

    moduli: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "moduli", tuple(int(m) for m in self.moduli))
        if len(self.moduli) < 1:
            raise ValueError("group must have at least one coordinate")
        for m in self.moduli:
            if m != 0 and m < 2:
                raise ValueError(f"modulus must be 0 or >= 2, got {m}")

    @property
    def dim(self) -> int:
        return len(self.moduli)

    def zero(self) -> Element:
        return (0,) * self.dim

    def reduce(self, coords: Sequence[int]) -> Element:
        """Canonicalize a coordinate vector: cyclic entries into [0, m)."""
        if len(coords) != self.dim:
            raise ValueError(
                f"expected {self.dim} coordinates, got {len(coords)}"
            )
        return tuple(
            int(c) if m == 0 else int(c) % m
            for c, m in zip(coords, self.moduli)
        )

    def is_canonical(self, a: Element) -> bool:
        if len(a) != self.dim:
            return False
        return all(m == 0 or 0 <= c < m for c, m in zip(a, self.moduli))


@dataclass(frozen=True)
class AdditiveSet:
    """A nonempty finite subset of an abelian group, canonically stored.

    Elements are deduplicated, reduced to canonical residues, and kept in
    strictly increasing lexicographic order, so equal sets compare equal and
    every downstream argmax has a deterministic tie-break order.
    """

    spec: GroupSpec
    elements: tuple

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("additive set must be nonempty")
        prev = None
        for a in self.elements:
            if not self.spec.is_canonical(a):
                raise ValueError(f"element {a!r} is not canonical for {self.spec}")
            if prev is not None and not prev < a:
                raise ValueError("elements must be strictly increasing")
            prev = a

    @classmethod
    def from_elements(cls, spec: GroupSpec, elems: Iterable[Sequence[int]]) -> "AdditiveSet":
        """Canonicalize arbitrary input: reduce, deduplicate, sort."""
        canon = sorted({spec.reduce(e) for e in elems})
        return cls(spec, tuple(canon))

    def subset(self, rows: Iterable[int]) -> "AdditiveSet":
        """The elements at the strictly increasing indices rows, as a set.

        They are canonical and strictly increasing because self's elements
        are, so only the indices are checked, not each element again.
        """
        idx = list(map(int, rows))
        if not idx or idx[0] < 0 or idx[-1] >= len(self) or any(i >= j for i, j in zip(idx, idx[1:])):
            raise ValueError("subset rows must be nonempty, strictly increasing indices of the set")
        return AdditiveSet.from_sorted(self.spec, tuple(map(self.elements.__getitem__, idx)))

    @classmethod
    def from_sorted(cls, spec: GroupSpec, elements: tuple) -> "AdditiveSet":
        """The set of elements, unchecked: the caller vouches they are canonical and increasing."""
        out = object.__new__(cls)
        object.__setattr__(out, "spec", spec)
        object.__setattr__(out, "elements", elements)
        return out

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __contains__(self, a: Element) -> bool:
        return a in self.as_set

    @cached_property
    def as_set(self) -> frozenset:
        return frozenset(self.elements)


def parse_set(data: "bytes | str") -> AdditiveSet:
    """Parse the ASET v1 text format into a canonical AdditiveSet.

    Format (UTF-8, LF):
        aset 1
        dim <d>
        mod <m1> ... <md>     (0 = free coordinate)
        <d integers per line, one element per line>
    Lines starting with '#' are comments; duplicates are dropped and
    cyclic coordinates are reduced to [0, m) while parsing.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise AsetFormatError(f"input is not valid UTF-8: {exc}") from exc
    else:
        text = data
    lines = [ln for ln in map(str.strip, text.split("\n")) if ln and not ln.startswith("#")]
    if len(lines) < 4:
        raise AsetFormatError("file too short: need header plus one element")
    if lines[0].split() != ["aset", "1"]:
        raise AsetFormatError(f"bad magic line {lines[0]!r}, expected 'aset 1'")
    dim_parts = lines[1].split()
    if len(dim_parts) != 2 or dim_parts[0] != "dim":
        raise AsetFormatError(f"bad dim line {lines[1]!r}")
    try:
        dim = int(dim_parts[1])
    except ValueError as exc:
        raise AsetFormatError(f"bad dimension {dim_parts[1]!r}") from exc
    if dim < 1:
        raise AsetFormatError(f"dimension must be >= 1, got {dim}")
    mod_parts = lines[2].split()
    if not mod_parts or mod_parts[0] != "mod":
        raise AsetFormatError(f"bad mod line {lines[2]!r}")
    if len(mod_parts) != dim + 1:
        raise AsetFormatError(
            f"mod line has {len(mod_parts) - 1} entries, expected {dim}"
        )
    try:
        moduli = tuple(int(m) for m in mod_parts[1:])
    except ValueError as exc:
        raise AsetFormatError(f"bad modulus in {lines[2]!r}") from exc
    for m in moduli:
        if m != 0 and m < 2:
            raise AsetFormatError(f"modulus must be 0 or >= 2, got {m}")
    spec = GroupSpec(moduli)
    elems = []
    for ln in lines[3:]:
        parts = ln.split()
        if len(parts) != dim:
            raise AsetFormatError(
                f"element line {ln!r} has {len(parts)} coordinates, expected {dim}"
            )
        try:
            elems.append(tuple(map(int, parts)))
        except ValueError as exc:
            raise AsetFormatError(f"bad coordinate in {ln!r}") from exc
    if any(moduli):
        # reduce only the cyclic columns, then the rows are the canonical elements
        cols = [[c % m for c in col] if m else col for col, m in zip(zip(*elems), moduli)]
        elems = zip(*cols)
    return AdditiveSet(spec, tuple(sorted(set(elems))))


def serialize_set(a_set: AdditiveSet) -> bytes:
    """Serialize to ASET v1; parse(serialize(A)) == A exactly."""
    lines = ["aset 1", f"dim {a_set.spec.dim}"]
    lines.append("mod " + " ".join(str(m) for m in a_set.spec.moduli))
    for e in a_set.elements:
        lines.append(" ".join(str(c) for c in e))
    return ("\n".join(lines) + "\n").encode("utf-8")
