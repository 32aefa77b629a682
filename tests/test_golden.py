"""Golden reports: SHA-256 of the extract JSON for fixed (set, eps) pairs.

The digests were taken when sets whose raw coordinates pack into int64 were
still counted on raw-coordinate codes; rep_table now codes the gcd-reduced
copy of every set, so any refactor that moves a report byte fails here.
Labels ending in *2^53 are isomorphic copies with coordinates and moduli
multiplied by 2^53, whose raw differences are too wide for int64 codes
(build_codec returns None) while their reduced copies pack.  Labels ending
in *2^64+1 are copies multiplied by 2^64 with the element 1 added, and the
last base set lies in Z_(2^64+13); neither can be reduced, so their codes
are Python ints.  A "knife" eps is 4 * p_mass / E, where both branch
hypotheses hold with equality.

The verify-output digests pin the claimed and actual text of every oracle
check on these reports; on branch Q the lemma references' recounts are
pinned next to them.  The last test re-extracts every toy-scale job of
the benchmark in perfbench/ and checks it against the digests pinned there.
"""

import hashlib
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import difference_relation, st_failures, tv_failures

from bsgx import AdditiveSet, GroupSpec, Params, _codec, extract, gen_ap, gen_axis, gen_ball, gen_random
from bsgx._codec import build_codec
from bsgx.additive_stats import rep_table
from bsgx.bsg import partition_pq
from bsgx.groups import parse_set
from bsgx.numeric_lemma import WeightVector
from bsgx.oracle import verify_extraction, verify_report_dict

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

_BASES = {
    "ap:40,3,7": lambda: gen_ap(40, 3, 7),
    "ball:3,4": lambda: gen_ball(3, 4),
    "ball:2,9": lambda: gen_ball(2, 9),
    "axis:23,3": lambda: gen_axis(23, 3),
    "random:80,521,2": lambda: gen_random(80, 521, 2),
    "random:63,127,7": lambda: gen_random(63, 127, 7),
    "random:60,2^64,5 in Z_(2^64+13)": lambda: AdditiveSet.from_elements(
        GroupSpec(((1 << 64) + 13,)), gen_random(60, 1 << 64, 5).elements
    ),
}


def scaled(a: AdditiveSet, factor: int, extra: tuple = ()) -> AdditiveSet:
    """The copy of a with every coordinate and modulus multiplied by factor, plus extra."""
    return AdditiveSet.from_elements(
        GroupSpec(tuple(m * factor for m in a.spec.moduli)),
        [tuple(c * factor for c in e) for e in a.elements] + list(extra),
    )


COPIES = {
    "": lambda a: a,
    "2^53": lambda a: scaled(a, 1 << 53),
    "2^64+1": lambda a: scaled(a, 1 << 64, ((1,) + (0,) * (a.spec.dim - 1),)),
}


def build(label: str, eps: str, both: bool):
    """The input set and parameters of one golden case."""
    base, _, copy = label.partition("*")
    a = COPIES[copy](_BASES[base]())
    if eps == "knife":
        pq = partition_pq(a)
        eps_val = F(4 * pq.p_mass, pq.energy)
    else:
        eps_val = F(eps)
    return a, Params(eps=eps_val, run_both=both)


GOLDEN = {
    ("ap:40,3,7", "1/4", False): "02bff2d97995244036e120afdc9d10d6e5fb0483cb139c095948bb51c4c5443a",
    ("ap:40,3,7*2^53", "1/4", False): "bf1af06a91853b1af789918b2eef35699ba375ad0c2406cc9b6ea6ac3744df29",
    ("ball:3,4", "1/10", False): "5fee3442292b8576585da656c4683fc974b5e459ae433fbd56b7c83dc9c02779",
    ("axis:23,3", "2/5", False): "9f3b26d7b0d95b51efa9c6bd4db6607981fed8226927bd128c47e785dd5de5bf",
    ("axis:23,3*2^53", "2/5", False): "4cae46b784840545fe93be96e2005709505dac26e76599a3f5354bc9c2c3e085",
    ("random:80,521,2", "2/5", False): "2691deadd9c1b01b18216854c6a23acc512b43aba885e134073f4678f9adec28",
    ("random:80,521,2*2^53", "2/5", False): "d7562580703e3a8a04f558b85ee8caf646a851186c5e7e0905e8e9643307cf8f",
    ("random:80,521,2", "knife", True): "1ddae9157cb22e62243d22bee822fde14698481b2ac5633ac6c58bdc5be25f6e",
    ("random:80,521,2*2^53", "knife", True): "3e0898031363f5732e8ba0b5b5982029313dd2cc45d5fb40d1fcf1eb4cb409a8",
    ("random:63,127,7", "knife", True): "2e2ac60d4f8adb8efbc0ecbf2794a22461fbc202dcb56e2dae57fc2ee26c4581",
    ("ball:2,9*2^64+1", "1/4", False): "006791ac8c20d155782c9edfb8259d582a4dc0dac67e716d4c91c917eac81020",
    ("random:80,521,2*2^64+1", "knife", True): "b5b97c6bb8f25fce851e3d368f8d98102ded54aa1a85f3dbeec3be09199fe761",
    ("random:60,2^64,5 in Z_(2^64+13)", "1/4", False): "f47e83235902fbbec9446f28f5217b08ec9aa57d66ad8fe0e88056333c6c7f8b",
}


# every case at the default block budget, and again at 64 cells, where every
# n x n scan splits into one-row chunks; the default cases' ids carry no suffix
GOLDEN_CASES = [
    pytest.param(*key, cells, id="-".join(map(str, key)) + suffix)
    for cells, suffix in ((None, ""), (64, "-64cells"))
    for key in GOLDEN
]


@pytest.mark.parametrize("label,eps,both,cells", GOLDEN_CASES)
def test_golden_report_bytes(label, eps, both, cells, monkeypatch):
    a, params = build(label, eps, both)
    wide = label.endswith(("*2^64+1", "Z_(2^64+13)"))
    assert (build_codec(a) is None) == ("*" in label or wide)
    assert (rep_table(a).codes.dtype == object) == wide
    if cells is not None:
        monkeypatch.setattr(_codec, "BLOCK_CELLS", cells)
    out = extract(a, params).to_json().encode()
    assert hashlib.sha256(out).hexdigest() == GOLDEN[(label, eps, both)]


@pytest.mark.parametrize("label,eps,both", list(GOLDEN))
def test_golden_reports_pass_every_oracle_check(label, eps, both):
    a, params = build(label, eps, both)
    res = verify_extraction(a, extract(a, params))
    assert res.status == "pass", [c.name for c in res.checks if c.status != "pass"]


# SHA-256 of the JSON of verify_report_dict's result on each golden report,
# then, on branch Q, what the lemma references recount on its witness: the
# thin pairs of A*, the fewest 3-step paths joining a pair of A', the
# selection window [k, l] and the chosen prefix length
VERIFY_GOLDEN = {
    ("ap:40,3,7", "1/4", False): ("cd2d4cd1a09e637543e5e4e740003bd63d399c12c08b19e63fab9fc5fe1d9acd",),
    ("ap:40,3,7*2^53", "1/4", False): ("cd2d4cd1a09e637543e5e4e740003bd63d399c12c08b19e63fab9fc5fe1d9acd",),
    ("ball:3,4", "1/10", False): ("f6aa427aad4023ca48edaa31f97ebe0fcf0cdbd8e6ca1a24c0f1c3e3e795277a",),
    ("axis:23,3", "2/5", False): (
        "499fd24bec543328d48007d9cd0fbc1d5d47aeadd8043dc9e3aa26e4463b98c8", 0, 1007, (62, 1518), 62,
    ),
    ("axis:23,3*2^53", "2/5", False): (
        "499fd24bec543328d48007d9cd0fbc1d5d47aeadd8043dc9e3aa26e4463b98c8", 0, 1007, (62, 1518), 62,
    ),
    ("random:80,521,2", "2/5", False): (
        "0418545ee167b49ad33e2c83c5de5f0d33d01c2d73f967835f6938c319525f1b", 0, 4430, (141, 520), 141,
    ),
    ("random:80,521,2*2^53", "2/5", False): (
        "0418545ee167b49ad33e2c83c5de5f0d33d01c2d73f967835f6938c319525f1b", 0, 4430, (141, 520), 141,
    ),
    ("random:80,521,2", "knife", True): ("fc29f3657d4ec457e0c255a53ec7e00b695fcc1407dbe556e99d5005a9786eeb",),
    ("random:80,521,2*2^53", "knife", True): ("fc29f3657d4ec457e0c255a53ec7e00b695fcc1407dbe556e99d5005a9786eeb",),
    ("random:63,127,7", "knife", True): ("50347adca7d19ed49953ebdcf683d69ee4be0e78afa5ca5fcb0cda2bec7e8cd8",),
    ("ball:2,9*2^64+1", "1/4", False): ("40e87ff7e9dae5ca7476c0fc76a8d1f20cf5270a5f081380e8ed6d76675f2f0f",),
    ("random:80,521,2*2^64+1", "knife", True): ("49ba9aaaddd9eaa928149ddd983eb0ed816328dc0980566c4537143eaeae0f7d",),
    ("random:60,2^64,5 in Z_(2^64+13)", "1/4", False): (
        "e84643138087c24fbf014a723572bc4701d3fbe2e8239cef5685e26613037033",
    ),
}


@pytest.mark.parametrize("label,eps,both", list(VERIFY_GOLDEN))
def test_golden_verify_output(label, eps, both):
    def digest(result) -> str:
        return hashlib.sha256(json.dumps(result.to_json_dict(), sort_keys=True).encode()).hexdigest()

    a, params = build(label, eps, both)
    report = extract(a, params)
    pinned = [digest(verify_report_dict(a, report.to_json_dict()))]
    if report.case == "Q":
        w = report.witness
        relation = difference_relation(a, w.q_prime.elements)
        tv_failed, thin_pairs, fewest = tv_failures(relation, w.tv, report.eps / 2)
        pq = partition_pq(a)
        weights = WeightVector(rho=F(len(a), pq.energy), coeffs=pq.q_counts)
        st_failed, window = st_failures(weights, 1 - report.eps / 4, w.selection)
        assert tv_failed == st_failed == []
        pinned += [thin_pairs, fewest, window, w.selection.chosen_i]
    assert tuple(pinned) == VERIFY_GOLDEN[(label, eps, both)]


def test_every_toy_benchmark_report_matches_its_pin():
    """Every toy-scale benchmark job: pinned bytes, branch and route marker.

    The certify jobs also pass every oracle check.  VerificationResult.ok
    does not fail a skipped check, and the benchmark reads ok; requiring
    "pass" here keeps a skip from passing there unseen.
    """
    sys.path.insert(0, str(PERFBENCH))
    try:
        from workloads import VARIANTS, WORKLOADS, instance
    finally:
        sys.path.pop(0)
    pinned = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
    jobs = [
        job
        for workload in WORKLOADS.values()
        for slot in range(workload.slots)
        for variant in range(VARIANTS)
        for job in instance(workload, slot, variant, "toy")
    ]
    assert len(jobs) == 240 and sum(job.verify for job in jobs) == 96
    for job in jobs:
        a = parse_set(job.aset)
        out = extract(a, Params(eps=job.eps)).to_json()
        assert hashlib.sha256(out.encode()).hexdigest() == pinned[job.label], job.label
        doc = json.loads(out)
        assert doc["case"] == job.case, job.label
        assert (build_codec(a) is not None) == job.codec, job.label
        if job.verify:
            res = verify_report_dict(a, doc)
            assert res.status == "pass", (job.label, [c.name for c in res.checks if c.status != "pass"])
