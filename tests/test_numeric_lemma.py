import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import select_rational, st_failures

from bsgx.generators import SplitMix64
from bsgx.numeric_lemma import PrefixSelection, select_index_set

F = Fraction


def arr(*coeffs):
    return np.array(coeffs, dtype=np.int64)


def w_squared(rho: Fraction, sel: PrefixSelection) -> Fraction:
    """The square certified_coeff^2 * rho of the certified sum W."""
    return sel.certified_coeff**2 * rho


def fields(sel: PrefixSelection) -> tuple:
    """The fields of a selection but its certified sum, index_set as a list."""
    return (sel.weight_count, sel.chosen_i, sel.index_set.tolist(), sel.window_lo)


def test_only_integer_arrays_are_counts():
    # only numpy arrays of int or uint dtype are counts: no tuple, list
    # or object array, not even one of Python ints
    for bad in (
        (2,),
        [2],
        np.array([F(1, 2)], dtype=object),
        np.array([2.0], dtype=object),
        np.array([2], dtype=object),
        np.array([1 << 64], dtype=object),
    ):
        with pytest.raises(ValueError):
            select_index_set(bad, F(1, 4), F(1, 2))
    with pytest.raises(ValueError):
        select_index_set(arr(1), F(0), F(1, 2))
    # boundary value exactly 1 is fine, in any integer dtype
    for dtype in (np.int64, np.int32, np.uint8, np.uint64):
        sel = select_index_set(np.array([2], dtype=dtype), F(1, 4), F(1, 2))
        assert sel.index_set.tolist() == [0] and sel.certified_coeff == 2


def test_single_weight():
    sel = select_index_set(arr(1), F(1), F(1, 2))
    assert sel.index_set.dtype == np.int64 and sel.index_set.tolist() == [0]
    assert sel.chosen_i == 1
    assert sel.certified_coeff == 1
    assert st_failures(arr(1), F(1), F(1, 2), sel)[0] == []


def test_four_equal_weights_picks_a_pair():
    # S = 4, T = 4, alpha = 1/2: the mass test forces at least two weights,
    # and the first window length already satisfies the size branch.
    coeffs = arr(1, 1, 1, 1)
    sel = select_index_set(coeffs, F(1), F(1, 2))
    assert sel.chosen_i == 2
    assert sel.index_set.tolist() == [0, 1]  # stable: ties keep original order
    assert sel.window_lo == 2
    assert w_squared(F(1), sel) == 4  # sum is 2 = 2*sqrt(1)
    assert st_failures(coeffs, F(1), F(1, 2), sel) == ([], (2, 4))


def test_same_values_different_scaling_agree():
    # identical real weights 1/2, 1/3, 1/4, 1/5 over two different radicands
    a, rho_a = arr(30, 20, 15, 12), F(1, 3600)
    b, rho_b = arr(210, 140, 105, 84), F(1, 3600 * 49)
    for alpha in (F(1, 2), F(3, 4), F(39, 40)):
        sa = select_index_set(a, rho_a, alpha)
        sb = select_index_set(b, rho_b, alpha)
        assert fields(sa) == fields(sb)
        assert sb.certified_coeff == 7 * sa.certified_coeff
        assert w_squared(rho_a, sa) == w_squared(rho_b, sb)


def test_alpha_out_of_range():
    for alpha in (F(0), F(1), F(-1, 2), F(5, 4)):
        with pytest.raises(ValueError):
            select_index_set(arr(1), F(1), alpha)


def test_adversarial_near_threshold_vector():
    # x_i = 1 - 1/i: slowly growing weights with lots of near-ties; the i=1
    # entry is an honest zero weight.  Cleared to counts over lcm(1..n), 22
    # is the last n whose sum * max stays below 2^63
    n = 22
    for alpha in (F(1, 2), F(3, 4), F(39, 40)):
        coeffs, rho, sel = select_rational(F(1), (1 - F(1, i) for i in range(1, n + 1)), alpha)
        assert st_failures(coeffs, rho, alpha, sel)[0] == []
    with pytest.raises(ValueError, match=r"2\^63"):
        select_rational(F(1), (1 - F(1, i) for i in range(1, n + 2)), F(1, 2))


def test_selection_is_a_descending_prefix():
    coeffs, rho = arr(3, 7, 7, 1, 0, 9), F(1, 100)
    sel = select_index_set(coeffs, rho, F(2, 3))
    # the index set is a prefix of the stable descending order, sorted
    assert sel.weight_count == 6
    assert sel.index_set.tolist() == sorted([5, 1, 2, 0, 3, 4][: sel.chosen_i])
    assert sel.window_lo <= sel.chosen_i
    assert st_failures(coeffs, rho, F(2, 3), sel)[0] == []


def test_seeded_random_vectors_pass_the_oracle():
    rng = SplitMix64(77)
    for trial in range(50):
        n = 1 + rng.below(50)
        coeffs = arr(*(rng.below(10**6) for _ in range(n)))
        if coeffs.max() == 0:
            coeffs[0] = 1
        rho = F(1, int(coeffs.max()) ** 2)
        alpha = F(1 + rng.below(38), 40)
        sel = select_index_set(coeffs, rho, alpha)
        assert isinstance(sel, PrefixSelection)
        assert st_failures(coeffs, rho, alpha, sel)[0] == [], trial


def test_array_tuple_and_fraction_coefficients_agree():
    # the same weights as an int64 array, and as an int tuple and Fractions
    # c / L with radicand rho * L^2, both cleared to counts by select_rational
    rng = SplitMix64(2024)
    for trial in range(40):
        n = 1 + rng.below(60)
        # few distinct values, so ties are common
        ints = [rng.below(1 + rng.below(12)) * (1 + rng.below(5)) for _ in range(n)]
        if max(ints) == 0:
            ints[-1] = 1
        rho = F(1, max(ints) ** 2 * (1 + rng.below(4)))
        scale = 1 + rng.below(30)
        alpha = F(1 + rng.below(38), 40)
        sel_arr = select_index_set(np.array(ints, dtype=np.int64), rho, alpha)
        c_int, rho_int, sel_int = select_rational(rho, tuple(ints), alpha)
        fracs = (F(c, scale) for c in ints)
        c_frac, rho_frac, sel_frac = select_rational(rho * scale * scale, fracs, alpha)
        assert fields(sel_arr) == fields(sel_int) == fields(sel_frac), trial
        assert sel_arr.certified_coeff == sel_int.certified_coeff
        assert w_squared(rho_frac, sel_frac) == w_squared(rho_int, sel_int)
        for coeffs, r, sel in (
            (c_int, rho_int, sel_arr), (c_int, rho_int, sel_int), (c_frac, rho_frac, sel_frac)
        ):
            assert st_failures(coeffs, r, alpha, sel)[0] == [], trial


def test_selection_past_int64_is_refused():
    # sum * max = (3 * 2^31 + 2) * 2^31 passes 2^63, although every count
    # fits in int64, also as the cleared counts of Fractions c / 7
    ints = [1 << 31, 1 << 31, 3, (1 << 31) - 1]
    rho = F(1, 1 << 62)
    with pytest.raises(ValueError, match=r"2\^63"):
        select_index_set(np.array(ints, dtype=np.int64), rho, F(3, 4))
    with pytest.raises(ValueError, match=r"2\^63"):
        select_rational(rho * 49, (F(c, 7) for c in ints), F(3, 4))
    # the first count alone is inside the bound
    first = select_index_set(np.array(ints[:1], dtype=np.int64), rho, F(3, 4))
    assert first.certified_coeff == 1 << 31
    # a uint64 count past int64 is refused, not wrapped
    with pytest.raises(ValueError, match=r"2\^63"):
        select_index_set(np.array([1, 1 << 63], dtype=np.uint64), F(1, 1 << 126), F(1, 2))


def reference_selection(coeffs: list, rho: Fraction, alpha: Fraction) -> tuple:
    """The selection by its definition on Python ints, over the full stable
    descending order of all the weights: (that order, chosen_i, index_set,
    certified_coeff, window_lo and the window's end l)."""
    a, b = alpha.numerator, alpha.denominator
    order = sorted(range(len(coeffs)), key=coeffs.__getitem__, reverse=True)
    c_desc = [coeffs[i] for i in order]
    c1, c2 = sum(coeffs), sum(c * c for c in coeffs)
    cut = -(-(b - a) * c2 // (2 * b * c1))
    ell = sum(1 for c in coeffs if c >= cut)
    need = -(-(a * a * c2 * c2 * rho.numerator) // (b * b * rho.denominator))
    prefix = [sum(c_desc[:i]) for i in range(ell + 1)]
    k = next(i for i in range(1, ell + 1) if prefix[i] >= math.isqrt(need - 1) + 1)
    i = next(
        i for i in range(k, ell + 1)
        if 1024 * c1 * c1 * b**5 * prefix[i] ** 6 >= (b - a) ** 5 * c2**4 * i**4
    )
    return order, i, sorted(order[:i]), prefix[i], k, ell


@settings(max_examples=150, deadline=None)
@given(
    small=st.lists(st.integers(0, 5), min_size=1, max_size=60).filter(any),
    alpha=st.integers(1, 39).map(lambda t: F(t, 40)),
    spread=st.integers(1, 4),
    wide=st.booleans(),
)
def test_selection_sorts_only_the_window(small, alpha, spread, wide):
    # few distinct values, so ties are common; wide scales them by 2^31, to
    # either side of the refusal bound sum * max < 2^63
    ints = [c << (31 if wide else 0) for c in small]
    rho = F(1, max(ints) ** 2 * spread)
    coeffs = np.array(ints, dtype=np.int64)
    if sum(ints) * max(ints) >= 1 << 63:
        with pytest.raises(ValueError, match=r"2\^63"):
            select_index_set(coeffs, rho, alpha)
        return
    sel = select_index_set(coeffs, rho, alpha)
    _, chosen, index_set, coeff, lo, _ = reference_selection(ints, rho, alpha)
    assert (sel.chosen_i, sel.index_set.tolist(), sel.certified_coeff) == (chosen, index_set, coeff)
    assert (sel.window_lo, sel.weight_count) == (lo, len(ints))


def test_select_index_set_checks_arrays_without_boxing():
    sel = select_index_set(np.array([4, 0, 2], dtype=np.int64), F(1, 16), F(1, 2))
    assert sel.weight_count == 3
    for bad in (
        np.array([], dtype=np.int64),
        np.array([0, 0], dtype=np.int64),
        np.array([-1, 2], dtype=np.int64),
        np.array([5], dtype=np.int64),  # 5 * sqrt(1/16) > 1
        np.array([1.0]),
        np.array([[1]], dtype=np.int64),
    ):
        with pytest.raises(ValueError):
            select_index_set(bad, F(1, 16), F(1, 2))


TOP = 3_037_000_499  # the largest count whose square is below 2^63


@pytest.mark.parametrize("alpha", [F(1, 2), F(3, 4), F(39, 40)])
def test_the_refusal_bound_is_sum_times_max(alpha):
    assert TOP**2 < 1 << 63 <= (TOP + 1) ** 2
    rho = F(1, TOP**2)
    sel = select_index_set(arr(TOP), rho, alpha)
    assert (sel.chosen_i, sel.index_set.tolist(), sel.certified_coeff) == (1, [0], TOP)
    with pytest.raises(ValueError, match=r"2\^63"):
        select_index_set(arr(TOP + 1), F(1, (TOP + 1) ** 2), alpha)
    # len * max^2 = 2 * TOP^2 passes 2^63; sum * max = (TOP + 1) * TOP does not
    ints = [TOP, 1]
    assert 2 * TOP**2 >= 1 << 63 > sum(ints) * max(ints)
    sel = select_index_set(np.array(ints, dtype=np.int64), rho, alpha)
    _, chosen, index_set, coeff, lo, _ = reference_selection(ints, rho, alpha)
    assert (sel.chosen_i, sel.index_set.tolist(), sel.certified_coeff, sel.window_lo) == (
        chosen, index_set, coeff, lo,
    )
