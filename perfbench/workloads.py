"""Seeded job streams for the benchmark workloads.

A job is one input set, one eps, and what the workload expects of it: the
branch the extraction must take, whether the rep table packs int64 codes or
falls back to dict counting, and whether the oracle re-checks the report.

Each workload cycles through a fixed list of slots.  A slot fixes the set
family, its size (one of three per family) and eps; the run seed picks one of
VARIANTS seeded instances per slot visit, which differ in content (start,
step, translate, sampled elements) but not in size.  So every run has the
same mix of sizes, and run-to-run spread comes from the machine rather than
from one seed drawing larger sets than another.  Keeping the instance space
finite lets every report the benchmark can produce be pinned by digest in
digests.json (see pin.py).

A run ends on a block boundary.  A block is one pass over all the slots, so
every run has the same mix of (size, eps) pairings however many blocks it
takes.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Tuple

from bsgx.generators import (
    SplitMix64,
    gen_ap,
    gen_axis,
    gen_ball,
    gen_random,
    sample_subset,
)
from bsgx.groups import AdditiveSet, GroupSpec, serialize_set

EPS = (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5))
VARIANTS = 8
SCALES = ("full", "toy")
# the isomorphic copy on certify multiplies coordinates and moduli by 2^53,
# which puts its differences beyond what _codec can pack into int64
COPY_FACTOR = 1 << 53


@dataclass(frozen=True)
class Job:
    label: str
    aset: bytes
    eps: Fraction
    case: str
    codec: bool
    verify: bool


def _p_family(kind: str, rng: SplitMix64, s: int, sizes: dict) -> Tuple[AdditiveSet, str]:
    """An AP in Z or a shifted lattice ball in Z^2 / Z^3 (popular branch)."""
    if kind == "ap":
        n = sizes["ap"][s]
        start = rng.below(2001) - 1000
        step = sizes["step"][0] + rng.below(sizes["step"][1])
        return gen_ap(n, start, step), f"ap:{n},{start},{step}"
    dim = 2 if kind == "ball2" else 3
    r2 = sizes[kind][s]
    ball = gen_ball(dim, r2)
    shift = tuple(rng.below(201) - 100 for _ in range(dim))
    moved = (tuple(c + t for c, t in zip(e, shift)) for e in ball.elements)
    return AdditiveSet.from_elements(ball.spec, moved), f"ball:{dim},{r2}+{','.join(map(str, shift))}"


# ap: lengths; ball2/ball3: squared radii; step: (least step, number of steps)
_POPULAR_SIZES = {
    "full": {"ap": (1900, 2100, 2300), "ball2": (605, 669, 733), "ball3": (59, 63, 67), "step": (1, 9)},
    "toy": {"ap": (65, 75, 85), "ball2": (18, 23, 28), "ball3": (5, 7, 9), "step": (1, 9)},
}
# the 2^53 copy of an AP escapes the codec only if the AP spans more than 256
_SMALL_P_SIZES = {
    "full": {"ap": (250, 300, 350), "ball2": (80, 95, 111), "ball3": (15, 17, 19), "step": (2, 4)},
    "toy": {"ap": (45, 50, 55), "ball2": (10, 13, 16), "ball3": (3, 4, 5), "step": (7, 4)},
}
_AXIS_G = {"full": (733, 800, 867), "toy": (132, 137, 142)}
_AXIS_DROP = {"full": 3, "toy": 2}  # elements dropped from each axis
_RANDOM_N = {"full": (300, 400, 500), "toy": (150, 160, 170)}
# the 2^53 copy of Z_m escapes the codec only when m > 2^62 / 2^53 = 512
_RANDOM_MODULUS = {"full": 1021, "toy": 521}


def _popular_p(slot: int, rng: SplitMix64, scale: str) -> List[Job]:
    block, pos = divmod(slot, 3)
    kind = ("ap", "ball2", "ball3")[pos]
    a_set, label = _p_family(kind, rng, (pos + block) % 3, _POPULAR_SIZES[scale])
    return [_job(a_set, label, EPS[block], "P", True, False)]


def _wide_q(slot: int, rng: SplitMix64, scale: str) -> List[Job]:
    block, pos = divmod(slot, 3)
    g = _AXIS_G[scale][(pos + block) % 3]
    drop = _AXIS_DROP[scale]
    sub_seed = rng.next_u64()
    # the same number of elements leaves each axis: when one axis is much
    # fuller than the others its differences turn popular and the job takes
    # branch P, which this workload exists to avoid
    base = gen_axis(g, 3)
    kept = [base.spec.zero()]
    for i in range(3):
        axis = AdditiveSet(base.spec, tuple(e for e in base.elements if e[i]))
        kept += sample_subset(axis, len(axis) - drop, sub_seed + i).elements
    a_set = AdditiveSet.from_elements(base.spec, kept)
    return [_job(a_set, f"axis:{g},3/drop:{drop},{sub_seed}", EPS[pos], "Q", True, False)]


def _certify(slot: int, rng: SplitMix64, scale: str) -> List[Job]:
    block, pos = divmod(slot, 2)
    if pos == 0:
        n, modulus = _RANDOM_N[scale][block], _RANDOM_MODULUS[scale]
        seed = rng.next_u64()
        a_set = gen_random(n, modulus, seed)
        label, case, eps = f"random:{n},{modulus},{seed}", "Q", EPS[block]
    else:
        kind = ("ap", "ball2", "ball3")[block]
        a_set, label = _p_family(kind, rng, (block + 2) % 3, _SMALL_P_SIZES[scale])
        case, eps = "P", EPS[(block + 1) % 3]
    copy = AdditiveSet.from_elements(
        GroupSpec(tuple(m * COPY_FACTOR for m in a_set.spec.moduli)),
        (tuple(c * COPY_FACTOR for c in e) for e in a_set.elements),
    )
    return [
        _job(a_set, label, eps, case, True, True),
        _job(copy, f"{label}*2^53", eps, case, False, True),
    ]


def _job(a_set: AdditiveSet, label: str, eps: Fraction, case: str, codec: bool, verify: bool) -> Job:
    return Job(
        label=f"{label} eps={eps}",
        aset=serialize_set(a_set),
        eps=eps,
        case=case,
        codec=codec,
        verify=verify,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    slots: int
    block: int  # jobs per pass over all the slots
    make: Callable[[int, SplitMix64, str], List[Job]]


# why each workload exists: README.md and BENCHMARK.json
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("popular-p", 9, 9, _popular_p),
        Workload("wide-q", 9, 9, _wide_q),
        Workload("certify", 6, 12, _certify),
    )
}


def instance(workload: Workload, slot: int, variant: int, scale: str) -> List[Job]:
    """The jobs of one (slot, variant) instance; a pure function of its arguments."""
    key = f"{workload.name}/{scale}/{slot}/{variant}".encode()
    rng = SplitMix64(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))
    return [
        dataclasses.replace(job, label=f"{workload.name}/{job.label}")
        for job in workload.make(slot, rng, scale)
    ]


def job_stream(workload: Workload, seed: int, scale: str) -> Iterator[Job]:
    """The endless job sequence of one run: slot order fixed, variants seeded."""
    rng = SplitMix64(seed)
    slot = 0
    while True:
        yield from instance(workload, slot, rng.below(VARIANTS), scale)
        slot = (slot + 1) % workload.slots
