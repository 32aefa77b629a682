import math
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rep_items, sub, widen

from bsgx import _codec, gen_ap, gen_axis, gen_ball, gen_random
from bsgx._codec import _CAPS, build_codec, reduced_codec
from bsgx.additive_stats import rep_table
from bsgx.bsg import extract_p, extract_q, partition_pq
from bsgx.groups import AdditiveSet, GroupSpec
from bsgx.oracle import verify_report_dict

_COORD_CAP, _CODE_CAP = _CAPS[np.dtype(np.int64)]


def expected_code(codec, d):
    """The mixed-radix code of difference d, digit by digit from codec's fields."""
    digits = zip(d, codec.scales, codec.lows.tolist(), codec.strides.tolist())
    return sum((c // g - lo) * s for c, g, lo, s in digits)


def narrowest(codec):
    """The code dtype the caps give codec: the first b of 16, 32 and 64 with
    every digit bound at most 2^(b-3) and the radix product at most 2^(b-2)."""
    bounds = [(lo, lo + r - 1) for lo, r in zip(codec.lows.tolist(), codec.radices.tolist())]
    widest = max(abs(v) for pair in bounds for v in pair)
    size = math.prod(codec.radices.tolist())
    bits = next((b for b in (16, 32, 64) if widest <= 1 << b - 3 and size <= 1 << b - 2), None)
    return np.dtype(f"int{bits}" if bits else object)


@st.composite
def packable_sets(draw):
    """Mixed free/cyclic sets of dims 1-4 whose raw coordinates still pack.

    One free coordinate may sit next to +-_COORD_CAP (exactly so in dim 1,
    shifted down by 8 bits per further coordinate so the radix product stays
    under _CODE_CAP); other free coordinates are small and may be negative.
    The reduced copy shifts the big coordinate to a span of at most 4096, so
    test_near_cap_sets_are_packed tests the caps on reduced coordinates.
    """
    dim = draw(st.integers(min_value=1, max_value=4))
    moduli = tuple(draw(st.sampled_from([0, 0, 2, 7, 101])) for _ in range(dim))
    free = [j for j, m in enumerate(moduli) if m == 0]
    huge = draw(st.sampled_from([None] + free))
    n = draw(st.integers(min_value=1, max_value=10))

    def column(lo, hi):
        return draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))

    cols = []
    for j, m in enumerate(moduli):
        if m:
            cols.append(column(0, m - 1))
        elif j == huge:
            base = draw(st.sampled_from([1, -1])) * ((_COORD_CAP >> 8 * (dim - 1)) - 4096)
            cols.append([base + v for v in column(-2048, 2048)])
        else:
            cols.append(column(-50, 50))
    return AdditiveSet.from_elements(GroupSpec(moduli), zip(*cols))


@given(packable_sets())
@settings(max_examples=300, deadline=None)
def test_diff_codes_match_encoded_differences(a):
    # raw coordinates that pack reduce to integer codes as well, in the
    # narrowest dtype whose caps hold them
    assert build_codec(a) is not None
    codec, coords = reduced_codec(a)
    assert coords.dtype == narrowest(codec) != object
    elems = a.elements
    want = [expected_code(codec, sub(a.spec, x, y)) for x in elems for y in elems]
    assert all(0 <= c < _CODE_CAP for c in want)
    got = codec.diff_codes(coords, coords)
    assert got.dtype == coords.dtype
    assert got.shape == (len(a), len(a))
    assert got.ravel().tolist() == want
    # the row and column blocks the chunked scans pass
    k = len(a) // 2
    assert codec.diff_codes(coords[k:], coords).tolist() == got[k:].tolist()
    assert codec.diff_codes(coords, coords[:k]).tolist() == got[:, :k].tolist()


def test_near_cap_sets_are_packed():
    # reduced spans and radix products at a dtype's caps get that dtype's
    # codes, one past them the next wider one (Python ints past int64); every
    # dtype codes each difference alike and counts it as a tally of the pairs
    def check(moduli, elems, dtype):
        a = AdditiveSet.from_elements(GroupSpec(moduli), elems)
        codec, coords = reduced_codec(a)
        assert coords.dtype == narrowest(codec) == dtype, (moduli, elems)
        assert codec.diff_codes(coords, coords).tolist() == [
            [expected_code(codec, sub(a.spec, x, y)) for y in a.elements]
            for x in a.elements
        ]
        rep = rep_table(a)
        tally = Counter(sub(a.spec, x, y) for x in a.elements for y in a.elements)
        assert rep.coder.decode(rep.codes) == sorted(tally)
        assert rep.counts.tolist() == [tally[d] for d in sorted(tally)]

    ladder = ((16, np.int16, np.int32), (32, np.int32, np.int64), (64, np.int64, object))
    for bits, inside, past in ladder:
        coord_cap, code_cap = 1 << bits - 3, 1 << bits - 2
        for sign in (1, -1):
            # a free span s (gcd 1, shifted far from 0) has radix 2s + 1 <= code_cap
            base = sign << 70
            for span, dtype in (((code_cap >> 1) - 1, inside), (code_cap >> 1, past)):
                check((0,), [(base,), (base + 1,), (base + span,)], dtype)
        # a cyclic modulus m (gcd 1 by the element 1) has largest digit m - 1
        check((coord_cap + 1,), [(0,), (1,)], inside)
        check((coord_cap + 2,), [(0,), (1,)], past)
        # two cyclic radices multiply to exactly code_cap, then one past it
        half = 1 << (bits - 2) // 2
        check((half, half), [(0, 0), (1, 1)], inside)
        check((half, half + 1), [(0, 0), (1, 1)], past)


def cap_box(bits, order):
    """A free x cyclic set whose radix product is 2^(bits-2) - 1, one below the
    b-bit cap: free span 2^(k-1) - 1 (radix 2^k - 1) and modulus 2^k + 1 for
    k = (bits - 2) / 2.  It holds the all-low corner, whose right code is 0,
    the all-high corner, whose left code is size - 1, and the value 1 on each
    coordinate, so reduction leaves it as it is.  order puts the coordinates
    as (free, cyclic) or (cyclic, free)."""
    k = (bits - 2) // 2
    free, cyc = (1 << k - 1) - 1, (1 << k) + 1
    pairs = [(f, c) for f in (0, 1, free) for c in (0, 1, cyc - 1)]
    if order == "cf":
        return AdditiveSet.from_elements(GroupSpec((cyc, 0)), [(c, f) for f, c in pairs])
    return AdditiveSet.from_elements(GroupSpec((0, cyc)), pairs)


@pytest.mark.parametrize("order", ["fc", "cf"])
@pytest.mark.parametrize("bits", [16, 32, 64])
def test_diff_codes_at_the_radix_product_cap(bits, order):
    # every pair of the corners, both ways round: high - low is the top code
    # size - 1, and low - high the most negative first difference, which only
    # the wrap of the cyclic coordinate brings back into [0, size)
    a = cap_box(bits, order)
    codec, coords = reduced_codec(a)
    size = math.prod(codec.radices.tolist())
    assert size == (1 << bits - 2) - 1
    assert coords.dtype == np.dtype(f"int{bits}")
    assert coords.tolist() == [list(e) for e in a.elements]
    want = [[expected_code(codec, sub(a.spec, x, y)) for y in a.elements] for x in a.elements]
    got = codec.diff_codes(coords, coords)
    assert got.dtype == coords.dtype
    assert got.tolist() == want
    assert got.max() == size - 1 == want[-1][0]
    n = len(a)
    for k in range(n + 1):
        assert codec.diff_codes(coords[k:], coords).tolist() == want[k:]
        assert codec.diff_codes(coords[:k], coords).tolist() == want[:k]
        assert codec.diff_codes(coords, coords[k:]).tolist() == [row[k:] for row in want]
        assert codec.diff_codes(coords, coords[:k]).tolist() == [row[:k] for row in want]


@pytest.mark.parametrize(
    "build",
    [lambda: cap_box(16, "fc"), lambda: cap_box(32, "cf"), lambda: cap_box(64, "fc"),
     lambda: gen_ball(3, 49), lambda: gen_axis(23, 3),
     lambda: AdditiveSet.from_elements(GroupSpec((0,)), [(0,), (1,), (1 << 63,)])],
    ids=["int16", "int32", "int64", "ball:3,49", "axis:23,3", "object"],
)
def test_diff_codes_overwrite_a_dirty_out(build):
    # out may hold anything: the codes written into it, whole or a block of a
    # flat buffer as the sorted pair pass passes it, match a fresh buffer's
    a = build()
    codec, coords = reduced_codec(a)
    fresh = codec.diff_codes(coords, coords)
    junk = 7 if coords.dtype == object else np.iinfo(coords.dtype).max
    out = np.full(fresh.shape, junk, dtype=coords.dtype)
    assert codec.diff_codes(coords, coords, out=out) is out
    assert out.tolist() == fresh.tolist()
    n = len(a)
    flat = np.full(n * n + 3, junk, dtype=coords.dtype)
    lo, hi = n // 3, n - 1
    stop = 2 + (hi - lo) * n
    codec.diff_codes(coords[lo:hi], coords, out=flat[2:stop].reshape(hi - lo, n))
    assert flat[2:stop].tolist() == fresh[lo:hi].ravel().tolist()
    assert set(flat[:2].tolist() + flat[stop:].tolist()) == {junk}


def test_raw_caps_decide_build_codec():
    # free and cyclic coordinate bounds just inside or past _COORD_CAP, and
    # a radix product just inside or past _CODE_CAP
    def packs(moduli, elem):
        return build_codec(AdditiveSet.from_elements(GroupSpec(moduli), [elem])) is not None

    assert packs((0,), (_COORD_CAP,)) and not packs((0,), (_COORD_CAP + 1,))
    assert packs((0,), (-_COORD_CAP,)) and not packs((0,), (-_COORD_CAP - 1,))
    assert packs((_COORD_CAP + 1,), (0,)) and not packs((_COORD_CAP + 2,), (0,))
    assert packs((1 << 31, 1 << 31), (0, 0)) and not packs((1 << 31, (1 << 31) + 1), (0, 0))


def test_benchmark_families_take_narrow_codes():
    # APs, 2-d balls and Z_1021 sets, and their 2^53 copies, reduce to int16;
    # a 3-d ball's radix product 33^3 and (Z_867)^3's pass int16's caps
    def dtype(a):
        return reduced_codec(a)[1].dtype

    def scaled(a):
        spec = GroupSpec(tuple(m << 53 for m in a.spec.moduli))
        return AdditiveSet.from_elements(spec, [tuple(c << 53 for c in e) for e in a.elements])

    for a in (gen_ap(2300, 5, 3), gen_ball(2, 733), gen_random(500, 1021, 3)):
        assert dtype(a) == dtype(scaled(a)) == np.int16
    assert dtype(gen_ball(3, 67)) == dtype(gen_axis(867, 3)) == np.int32


@pytest.mark.parametrize("wide", [False, True])
@given(a=packable_sets(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_pair_codes_decode_to_differences(wide, a, data):
    a = widen(a, wide)
    rep = rep_table(a)
    # the route marker: None when the raw coordinates do not pack
    assert rep.codec is (None if wide else rep.coder)
    codes = rep.codes.tolist()
    assert codes == sorted(set(codes))
    diffs = [d for d, _ in rep_items(rep)]
    assert diffs == sorted(set(diffs))
    n = len(a)
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    block = rep.pair_codes(lo, hi)
    assert block.shape == (hi - lo, n)
    want = [sub(a.spec, x, y) for x in a.elements[lo:hi] for y in a.elements]
    assert rep.coder.decode(block.ravel()) == want


# Sets whose raw coordinates do not pack, so rep_table codes their reduced
# copies; the flag says whether even those need Python-int codes.  Most are
# built on the integers of one random subset of [0, 521), whose popular mass
# is low enough that both branch hypotheses hold at one eps.
M = (1 << 64) + 13
BASE = [x for (x,) in gen_random(80, 521, 2).elements]


def _set(moduli, elems):
    return AdditiveSet.from_elements(GroupSpec(moduli), elems)


REDUCED = {
    # shifted and scaled, all free values negative; reduces to int32
    "shifted-scaled": (
        lambda: _set((0, 521 << 60), [(3 * (x << 40) - (1 << 70) - 5, x << 60) for x in BASE]),
        False,
    ),
    # free span at least 2^63 with gcd 1
    "span-2^63": (lambda: _set((0,), [(x << 63,) for x in BASE] + [(1,)]), True),
    # a unit multiple of BASE in Z_(2^64+13), so isomorphic to BASE
    "Z_(2^64+13)": (lambda: _set((M,), [(((1 << 40) + 7) * x % M,) for x in BASE]), True),
    # small coordinates whose radix product passes 2^62
    "dim-3": (lambda: _set((0, 0, 0), [(x, x + (int(x >= 480) << 45), -x) for x in BASE]), True),
    # scaled by 2^64+13: int32 codes, but g does not fit int64
    "scale-M": (lambda: _set((0, 521 * M), [(x * M - (1 << 80), x * M) for x in BASE]), False),
    "n=1": (lambda: _set((0, M), [(1 << 70, 5)]), True),
    # constant free and cyclic coordinates; the cyclic one reduces to Z_1
    "constant": (lambda: _set((0, 0, 1 << 64), [(x << 62, 7, 0) for x in BASE]), False),
}


@pytest.mark.parametrize("cells", [None, 64])
@pytest.mark.parametrize("label", list(REDUCED))
def test_reduced_route_matches_the_definition(label, cells, monkeypatch):
    build, wide = REDUCED[label]
    a = build()
    if cells is not None:
        monkeypatch.setattr(_codec, "BLOCK_CELLS", cells)
    rep = rep_table(a)
    assert build_codec(a) is None and rep.codec is None
    assert rep.codes.dtype == narrowest(rep.coder)
    assert (rep.codes.dtype == object) == wide
    elems = a.elements
    tally = Counter(sub(a.spec, x, y) for x in elems for y in elems)
    diffs = sorted(tally)
    assert rep.coder.decode(rep.codes) == diffs
    assert rep.counts.tolist() == [tally[d] for d in diffs]
    assert rep.codes.tolist() == [expected_code(rep.coder, d) for d in diffs]
    n = len(a)
    for lo, hi in ((0, n), (n // 3, n // 2)):
        want = [sub(a.spec, x, y) for x in elems[lo:hi] for y in elems]
        assert rep.coder.decode(rep.pair_codes(lo, hi).ravel()) == want


@pytest.mark.parametrize("label", list(REDUCED))
def test_reduced_route_runs_both_branches(label, monkeypatch):
    a = REDUCED[label][0]()
    pq = partition_pq(a)
    # at eps = 4 * p_mass / E both branch hypotheses hold
    knife = F(4 * pq.p_mass, pq.energy)
    if knife < F(1, 2):
        runs = [(extract_p, knife), (extract_q, knife)]
    else:
        assert label == "n=1"
        runs = [(extract_p, F(1, 4))]
    for branch, eps in runs:
        report = branch(a, pq, eps)
        assert verify_report_dict(a, report.to_json_dict()).status == "pass"
        with monkeypatch.context() as mp:
            mp.setattr(_codec, "BLOCK_CELLS", 64)
            assert branch(a, partition_pq(a), eps).to_json() == report.to_json()
