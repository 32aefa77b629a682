import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rep_items, sub, traced, translate, zset

from bsgx import _codec
from bsgx.additive_stats import energy, rep_table
from bsgx.generators import gen_ap, gen_axis, gen_ball, gen_random
from bsgx.groups import AdditiveSet, GroupSpec

def test_rep_table_012():
    rep = rep_table(zset(0, 1, 2))
    table = dict(rep_items(rep))
    assert table == {(-2,): 1, (-1,): 2, (0,): 3, (1,): 2, (2,): 1}
    assert rep.codes.tolist() == sorted(rep.codes.tolist())
    assert rep.counts.sum() == 9


def test_rep_table_01():
    assert dict(rep_items(rep_table(zset(0, 1)))) == {(-1,): 1, (0,): 2, (1,): 1}


def test_rep_table_singleton():
    assert dict(rep_items(rep_table(zset(42)))) == {(0,): 1}


def test_items_are_lex_sorted():
    rep = rep_table(zset(0, 3, 7))
    keys = [d for d, _ in rep_items(rep)]
    assert keys == sorted(keys)


# (set, code dtype, whether the default block holds its code range)
INDEXED = {
    "ap:40": (lambda: gen_ap(40), np.int16, True),
    "ball:3,49": (lambda: gen_ball(3, 49), np.int32, True),
    "Z_(2^31+11)": (lambda: gen_random(40, 2147483659, 7), np.int64, False),
    "span-2^63": (lambda: zset(*(x << 63 for x in range(0, 120, 7)), 1), object, False),
}


def code_range(rep) -> int:
    return int(rep.coder.strides[0]) * int(rep.coder.radices[0])


def tables(rep, keys):
    """The shapes of the tables RepTable.lookup documents for keys: the code
    range when BLOCK_CELLS holds it; else, at the least shift s leaving at most
    BLOCK_CELLS pages of 2^s codes, the pages and the second level (a page per
    page with a key, and the all-miss page) when BLOCK_CELLS holds that; else
    None, the search, as for Python-int codes."""
    size = code_range(rep)
    shift = ((size - 1) // _codec.BLOCK_CELLS).bit_length()
    if keys.dtype == object:
        return None
    if not shift:
        return {(size,)}
    second = len(np.unique(keys >> shift)) + 1 << shift
    return {(-(-size >> shift),), (second,)} if second <= _codec.BLOCK_CELLS else None


def truths(keys):
    """The values of a membership map: True at every key."""
    return np.ones(len(keys), dtype=bool)


@pytest.mark.parametrize("cells", [None, 64])
@pytest.mark.parametrize("label", list(INDEXED))
def test_index_is_the_position_of_each_code(label, cells, monkeypatch):
    build, dtype, dense = INDEXED[label]
    if cells is not None:
        monkeypatch.setattr(_codec, "BLOCK_CELLS", cells)
    rep = rep_table(build())
    assert rep.codes.dtype == dtype
    n = len(rep.a_set)
    block = rep.pair_codes(0, n)
    pairs = block.ravel()
    position = rep.lookup(rep.codes, np.arange(len(rep)))
    found, searched, taken = traced(position, pairs)
    assert found.tolist() == np.searchsorted(rep.codes, pairs).tolist()
    # a table over the code range is gathered from, with no search, only when
    # the block holds the range; every code range here passes 64 cells, and
    # no two-level table of all the codes fits, so those search and gather
    # from no table
    gathers = dense and cells is None
    assert tables(rep, rep.codes) == ({(code_range(rep),)} if gathers else None)
    assert searched != gathers
    assert taken == ({(code_range(rep),)} if gathers else set())
    # a block of rows, gathered a slice of rows at a time on the dense route
    assert position(block).tolist() == np.searchsorted(rep.codes, block).tolist()
    assert position(rep.codes).tolist() == list(range(len(rep)))
    # every other code of the table is a key: the map gives their values, and
    # 0 at every other code, so True values tell the keys from the others
    keys = rep.codes[::2]
    values = 3 * np.arange(len(keys)) + 1
    assert rep.lookup(keys, values)(keys).tolist() == values.tolist()
    assert rep.lookup(keys, values)(rep.codes).tolist() == [
        0 if t % 2 else values[t // 2] for t in range(len(rep))
    ]
    key_set = set(keys.tolist())
    out = np.empty(block.shape, dtype=bool)
    found, searched, taken = traced(rep.lookup(keys, truths(keys)), block, out=out)
    # half the codes of Z_(2^31+11) fit a two-level table
    assert found is out and searched == (tables(rep, keys) is None)
    assert taken == (tables(rep, keys) or set())
    assert out.ravel().tolist() == [c in key_set for c in pairs.tolist()]


def definition(keys, codes):
    """Whether each code is a key, and the index of the first key not below it."""
    pos = np.searchsorted(keys, codes)
    return keys[np.minimum(pos, len(keys) - 1)] == codes, pos


# (set, code dtype) whose code range passes the default block while every
# other code of its table fits a two-level table
PAGED = {
    "axis:131,3": (lambda: gen_axis(131, 3), np.int32),
    "Z_(2^31+11)": (lambda: gen_random(40, 2147483659, 7), np.int64),
}


@pytest.mark.parametrize("label", list(PAGED))
def test_two_level_maps_agree_with_the_search(label):
    build, dtype = PAGED[label]
    rep = rep_table(build())
    keys = rep.codes[::2]
    assert keys.dtype == dtype and code_range(rep) > _codec.BLOCK_CELLS
    shapes = tables(rep, keys)
    assert shapes is not None and len(shapes) == 2
    block = rep.pair_codes(0, len(rep.a_set))
    in_keys, pos = definition(keys, block)
    out = np.empty(block.shape, dtype=bool)
    found, searched, taken = traced(rep.lookup(keys, truths(keys)), block, out=out)
    assert found is out and not searched and taken == shapes
    assert out.tolist() == in_keys.tolist() and in_keys.any() and not in_keys.all()
    values = 3 * np.arange(len(keys), dtype=dtype) + 1
    found, searched, taken = traced(rep.lookup(keys, values), block)
    assert not searched and taken == shapes
    assert found[in_keys].tolist() == values[pos[in_keys]].tolist()
    assert not found[~in_keys].any()


def test_a_second_level_past_the_block_searches(monkeypatch):
    # (Z_31)^3 axis vectors have 29,791 int32 codes.  At 4,408 cells, pages
    # of 2^3 codes number 3,724, and a third of the codes hit 550 of them: the
    # second level holds 551 pages, 4,408 cells.  One cell fewer keeps the shift
    # and leaves that level one page over the bound, so the map searches.
    rep = rep_table(gen_axis(31, 3))
    keys = rep.codes[::3]
    block = rep.pair_codes(0, len(rep.a_set))
    in_keys, pos = definition(keys, block)
    values = np.arange(len(keys)) + 7
    for cells, shapes in ((4408, {(3724,), (4408,)}), (4407, None)):
        monkeypatch.setattr(_codec, "BLOCK_CELLS", cells)
        assert tables(rep, keys) == shapes
        found, searched, taken = traced(rep.lookup(keys, truths(keys)), block)
        assert found.tolist() == in_keys.tolist()
        assert searched == (shapes is None) and taken == (shapes or set())
        found, searched, taken = traced(rep.lookup(keys, values), block)
        assert found[in_keys].tolist() == values[pos[in_keys]].tolist()
        assert not found[~in_keys].any()
        assert searched == (shapes is None) and taken == (shapes or set())


def test_python_int_codes_always_search():
    rep = rep_table(INDEXED["span-2^63"][0]())
    assert rep.codes.dtype == object
    # a single key would fit any table, were the codes machine integers
    keys = rep.codes[3:4]
    found, searched, taken = traced(rep.lookup(keys, truths(keys)), rep.codes)
    assert searched and not taken
    assert found.tolist() == [t == 3 for t in range(len(rep))]
    found, searched, taken = traced(rep.lookup(keys, np.array([5])), rep.codes)
    assert searched and not taken
    assert found.tolist() == [5 if t == 3 else 0 for t in range(len(rep))]


@pytest.mark.parametrize(
    "label, step, route",
    [("ap:40", 2, 1), ("axis:131,3", 2, 2), ("Z_(2^31+11)", 1, 0), ("span-2^63", 2, 0)],
)
def test_lookup_leaves_the_codes_as_they_are(label, step, route):
    # one set per route: one level, two levels, a search, Python ints
    rep = rep_table({**INDEXED, **PAGED}[label][0]())
    keys = rep.codes[::step]
    assert len(tables(rep, keys) or ()) == route
    block = rep.pair_codes(0, len(rep.a_set))
    kept = block.copy()
    rep.lookup(keys, truths(keys))(block)
    rep.lookup(keys, np.arange(len(keys)))(keys)
    assert block.dtype == kept.dtype and block.tolist() == kept.tolist()
    assert keys.tolist() == rep.codes[::step].tolist()


@pytest.mark.parametrize(
    "label, step, route",
    [("ap:40", 2, 1), ("axis:131,3", 2, 2), ("Z_(2^31+11)", 7, 0), ("span-2^63", 2, 0)],
)
def test_a_map_gives_the_values_at_its_keys_and_0_at_every_other_code(label, step, route):
    # one set per route: one level, two levels, a search, Python ints; every
    # code of the table is a key but each step-th, and every code is looked up
    rep = rep_table({**INDEXED, **PAGED}[label][0]())
    keys = np.delete(rep.codes, np.s_[::step])
    assert len(tables(rep, keys) or ()) == route
    block = rep.pair_codes(0, len(rep.a_set))
    for values in (3 * np.arange(len(keys), dtype=np.int32) + 1, truths(keys)):
        value_of = dict(zip(keys.tolist(), values.tolist()))
        want = [value_of.get(c, 0) for c in block.ravel().tolist()]
        found = rep.lookup(keys, values)(block)
        assert found.dtype == values.dtype and found.ravel().tolist() == want
        assert 0 in want and want.count(0) < len(want)
        out = np.ones(block.shape, dtype=values.dtype)
        assert rep.lookup(keys, values)(block, out=out) is out and out.ravel().tolist() == want


@pytest.mark.parametrize("cells", [None, 64])
@pytest.mark.parametrize("label", list(INDEXED))
def test_subset_diff_size_is_the_subset_table_size(label, cells, monkeypatch):
    build, dtype, _ = INDEXED[label]
    if cells is not None:
        monkeypatch.setattr(_codec, "BLOCK_CELLS", cells)
    a = build()
    rep = rep_table(a)
    assert rep.codes.dtype == dtype
    n = len(a)
    # the largest m whose m^2 pairs of A' are sorted, not the n^2 - m^2 lost
    half = math.isqrt(n * n // 2)
    rng = np.random.default_rng(n)
    routes = {}
    for m in (n, 1, half, half + 1):
        rows = np.sort(rng.choice(n, size=m, replace=False))
        want = len(rep_table(a.subset(rows)))
        found, searched, taken = traced(rep.subset_diff_size, rows)
        assert found == want, m
        routes[m] = (searched, bool(taken))
    # A' = A is the table's own size and looks nothing up, nor does sorting
    # the pairs of A'; at every block budget the lost-pair side finds its
    # runs' counts by one search of the codes, with no code table built
    assert routes[n] == routes[1] == routes[half] == (False, False)
    assert routes[half + 1] == (True, False)


def test_energy_small_examples():
    r = energy(zset(0, 1))
    assert (r.set_size, r.energy, r.diff_size) == (2, 6, 3)
    assert r.K == Fraction(4, 3)

    r = energy(zset(0, 1, 2))
    assert r.energy == 19
    assert r.K == Fraction(27, 19)

    r = energy(zset(9))
    assert r.energy == 1 and r.K == 1


@pytest.mark.parametrize("n", [1, 2, 3, 7, 25, 60])
def test_ap_energy_closed_form(n):
    # consecutive integers: E = (2n^3 + n) / 3
    assert energy(gen_ap(n)).energy == (2 * n**3 + n) // 3


def test_rep_invariants_on_a_structured_set():
    a = gen_axis(7, 2)
    table = dict(rep_items(rep_table(a)))
    n = len(a)
    for d, c in table.items():
        assert 1 <= c <= n
        assert table[a.spec.reduce([-x for x in d])] == c  # r(d) = r(-d)
    assert sum(table.values()) == n * n
    assert table[a.spec.zero()] == n


def test_huge_free_coordinates_fall_back():
    # coordinates beyond the packing cap, with gcd 1, take Python-int codes
    big = 1 << 62
    a = zset(0, big, 2 * big, 3 * big + 1)
    assert rep_table(a).codes.dtype == object
    r = energy(a)
    # {0, b, 2b, 3b+1}: r(b) = 2 (two adjacent pairs), ten other nonzero
    # differences occur once, so E = 16 + 2*4 + 8 and |A-A| = 11
    assert r.energy == 32
    assert r.diff_size == 11
    assert r.energy == sum(c * c for _, c in rep_items(rep_table(a)))


@st.composite
def small_sets(draw):
    m = draw(st.sampled_from([0, 0, 7, 24, 101]))
    spec = GroupSpec((m,))
    hi = 10**6 if m == 0 else m - 1
    elems = draw(
        st.lists(
            st.integers(min_value=0, max_value=hi), min_size=1, max_size=25
        )
    )
    return AdditiveSet.from_elements(spec, [(v,) for v in elems])


@given(small_sets())
@settings(max_examples=120, deadline=None)
def test_energy_report_invariants(a):
    n = len(a)
    r = energy(a)
    assert n * n <= r.energy <= n**3
    assert 1 <= r.K <= n
    assert r.K == Fraction(n**3, r.energy)
    # Cauchy-Schwarz: E * |A-A| >= |A|^4
    assert r.energy * r.diff_size >= n**4


@given(small_sets(), st.integers(min_value=-(10**4), max_value=10**4))
@settings(max_examples=60, deadline=None)
def test_translation_invariance(a, t):
    shifted = translate(a, (t,) if a.spec.moduli[0] == 0 else (t % a.spec.moduli[0],))
    assert energy(shifted).energy == energy(a).energy


@given(small_sets())
@settings(max_examples=60, deadline=None)
def test_rep_table_matches_difference_set(a):
    rep = rep_table(a)
    assert set(d for d, _ in rep_items(rep)) == {sub(a.spec, x, y) for x in a for y in a}
    # and every difference really occurs
    for d, c in rep_items(rep):
        brute = sum(1 for x in a for y in a if sub(a.spec, x, y) == d)
        assert brute == c


def test_freiman_rescaling_preserves_energy():
    # {0, 3, 6, ...} has the same additive structure as {0, 1, 2, ...}
    assert energy(gen_ap(10, 0, 3)).energy == energy(gen_ap(10)).energy
    assert energy(gen_ap(10, 5, -2)).energy == energy(gen_ap(10)).energy
