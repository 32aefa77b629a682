"""Deterministic construction of the standard test families.

Every generator is a pure function of its parameters.  The random families
use the splitmix64 generator with unbiased rejection sampling, both spelled
out below so the fixtures can be reproduced in any language:

  splitmix64 state update (all arithmetic mod 2^64):
      state += 0x9E3779B97F4A7C15
      z = state
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
      z = (z ^ (z >> 27)) * 0x94D049BB133111EB
      output = z ^ (z >> 31)

  uniform draw below n (1 <= n <= 2^64): let limit = (2^64 // n) * n; draw
  64-bit outputs until one is < limit, then return it mod n.

gen_random seeds splitmix64 with the given seed and repeatedly draws an
element of Z_modulus, skipping values already chosen, until it has n of
them.  sample_subset does the same over the index range of an existing set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import isqrt
from typing import Callable, Dict, Tuple

from .groups import AdditiveSet, GroupSpec

_MASK64 = (1 << 64) - 1
_BALL_GRID_CAP = 5_000_000


class SplitMix64:
    """The splitmix64 PRNG; tiny state, full 64-bit output, portable."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, no modulo bias."""
        if not 1 <= n <= 1 << 64:
            raise ValueError(f"range must be in [1, 2^64], got {n}")
        limit = ((1 << 64) // n) * n
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n


def _draw_distinct(count: int, below: int, seed: int) -> set:
    """count distinct integers in [0, below), drawn from seeded splitmix64."""
    if not 1 <= count <= below:
        raise ValueError(f"size must be in [1, {below}], got {count}")
    rng = SplitMix64(seed)
    chosen = set()
    while len(chosen) < count:
        chosen.add(rng.below(below))
    return chosen


def gen_ap(n: int, start: int = 0, step: int = 1) -> AdditiveSet:
    """Arithmetic progression {start + i * step : 0 <= i < n} over Z."""
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    if step == 0:
        raise ValueError("step must be nonzero")
    spec = GroupSpec((0,))
    return AdditiveSet.from_elements(
        spec, ((start + i * step,) for i in range(n))
    )


def gen_axis(g_modulus: int, n: int) -> AdditiveSet:
    """Vectors in (Z_g)^n with at most one nonzero coordinate."""
    if g_modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {g_modulus}")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    spec = GroupSpec((g_modulus,) * n)
    elems = [spec.zero()]
    for i in range(n):
        for v in range(1, g_modulus):
            e = [0] * n
            e[i] = v
            elems.append(tuple(e))
    return AdditiveSet.from_elements(spec, elems)


def gen_ball(dim: int, radius_sq: int) -> AdditiveSet:
    """Lattice points of Z^dim with squared Euclidean norm <= radius_sq."""
    if not 1 <= dim <= 4:
        raise ValueError(f"dimension must be in [1, 4], got {dim}")
    if radius_sq < 0:
        raise ValueError(f"squared radius must be >= 0, got {radius_sq}")
    r = isqrt(radius_sq)
    if (2 * r + 1) ** dim > _BALL_GRID_CAP:
        raise ValueError(
            f"candidate grid (2*{r}+1)^{dim} exceeds {_BALL_GRID_CAP} points"
        )
    spec = GroupSpec((0,) * dim)
    elems = [
        p
        for p in product(range(-r, r + 1), repeat=dim)
        if sum(c * c for c in p) <= radius_sq
    ]
    return AdditiveSet.from_elements(spec, elems)


def gen_random(n: int, modulus: int, seed: int) -> AdditiveSet:
    """n distinct elements of Z_modulus from seeded splitmix64 draws."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    spec = GroupSpec((modulus,))
    return AdditiveSet.from_elements(spec, ((v,) for v in _draw_distinct(n, modulus, seed)))


def sample_subset(a_set: AdditiveSet, size: int, seed: int) -> AdditiveSet:
    """A seeded size-element subset of an existing set (by element index)."""
    return a_set.subset(sorted(_draw_distinct(size, len(a_set), seed)))


# each family's builder, the argument counts GenSpec accepts, and for
# `bsgx gen` its help text and its flags (--radius-sq for radius_sq) in
# argument order, each with its default (None: required)
_FAMILIES: Dict[str, Tuple[Callable[..., AdditiveSet], Tuple[int, ...], str, tuple]] = {
    "ap": (gen_ap, (1, 2, 3), "arithmetic progression over Z", (("n", None), ("start", 0), ("step", 1))),
    "axis": (gen_axis, (2,), "at-most-one-nonzero vectors in (Z_g)^n", (("g", None), ("n", None))),
    "ball": (gen_ball, (2,), "lattice ball in Z^dim", (("dim", None), ("radius_sq", None))),
    "random": (gen_random, (3,), "seeded random subset of Z_modulus", (("n", None), ("modulus", None), ("seed", 0))),
}


@dataclass(frozen=True)
class GenSpec:
    """A family descriptor like "ap:100" or "random:63,127,7".

    Families and their comma-separated integer arguments:
        ap:n[,start[,step]]      arithmetic progression
        axis:g,n                 at-most-one-nonzero vectors in (Z_g)^n
        ball:dim,radius_sq       lattice ball
        random:n,modulus,seed    seeded subset of Z_modulus

    An unknown family, an empty argument or a wrong argument count raises ValueError.
    """

    family: str
    args: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        counts = _FAMILIES[self.family][1]
        if len(self.args) not in counts:
            raise ValueError(f"family {self.family!r} takes {counts} arguments, got {len(self.args)}")

    @classmethod
    def parse(cls, text: str) -> "GenSpec":
        family, _, arg_text = text.partition(":")
        try:
            args = tuple(int(a) for a in arg_text.split(",")) if arg_text.strip() else ()
        except ValueError as exc:
            raise ValueError(f"bad arguments in {text!r}") from exc
        return cls(family.strip(), args)

    def build(self) -> AdditiveSet:
        return _FAMILIES[self.family][0](*self.args)

    def label(self) -> str:
        return f"{self.family}:{','.join(str(a) for a in self.args)}"
