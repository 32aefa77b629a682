import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import counting_path

from bsgx._codec import _CODE_CAP, _COORD_CAP, build_codec
from bsgx.additive_stats import rep_table
from bsgx.groups import AdditiveSet, GroupSpec, sub


@st.composite
def packable_sets(draw):
    """Mixed free/cyclic sets of dims 1-4 that the codec can still pack.

    One free coordinate may sit next to +-_COORD_CAP (exactly so in dim 1,
    shifted down by 8 bits per further coordinate so the radix product stays
    under _CODE_CAP); other free coordinates are small and may be negative.
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
    codec = build_codec(a)
    assume(codec is not None)
    lows, strides = codec.lows.tolist(), codec.strides.tolist()
    elems = a.elements

    def code(d):
        return sum((c - lo) * s for c, lo, s in zip(d, lows, strides))

    diffs = [sub(a.spec, x, y) for x in elems for y in elems]
    want = [code(d) for d in diffs]
    assert all(0 <= c < _CODE_CAP for c in want)
    assert codec.encode(np.array(diffs, dtype=np.int64)).tolist() == want
    got = codec.diff_codes(codec.coords, codec.coords)
    assert got.shape == (len(a), len(a))
    assert got.ravel().tolist() == want
    # the row and column blocks the chunked scans pass
    k = len(a) // 2
    assert codec.diff_codes(codec.coords[k:], codec.coords).tolist() == got[k:].tolist()
    assert codec.diff_codes(codec.coords, codec.coords[:k]).tolist() == got[:, :k].tolist()


def test_near_cap_sets_are_packed():
    # the strategy's extreme case really reaches the codec, in both signs
    for sign in (1, -1):
        base = sign * (_COORD_CAP - 4096)
        a = AdditiveSet.from_elements(
            GroupSpec((0,)), [(base - 2048,), (base,), (base + 2048,)]
        )
        codec = build_codec(a)
        assert codec is not None
        assert codec.diff_codes(codec.coords, codec.coords).tolist() == [
            [codec.encode(np.array(sub(a.spec, x, y))).item() for y in a.elements]
            for x in a.elements
        ]


@pytest.mark.parametrize("fallback", [False, True])
@given(a=packable_sets(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_pair_codes_decode_to_differences(fallback, a, data):
    # the rank codes of the fallback and the codec's codes index alike
    with counting_path(fallback):
        rep = rep_table(a)
    assume(fallback or rep.codec is not None)
    assert (rep.codec is None) == fallback
    codes = rep.codes.tolist()
    assert codes == sorted(set(codes))
    diffs = [d for d, _ in rep.items()]
    assert diffs == sorted(set(diffs))
    n = len(a)
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    block = rep.pair_codes(lo, hi)
    assert block.shape == (hi - lo, n)
    want = [sub(a.spec, x, y) for x in a.elements[lo:hi] for y in a.elements]
    assert rep.decode(block.ravel()) == want
