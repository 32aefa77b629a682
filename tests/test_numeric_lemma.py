import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import st_failures, weight_vector

from bsgx.generators import SplitMix64
from bsgx.numeric_lemma import (
    PrefixSelection,
    WeightVector,
    _integer_coeffs,
    select_index_set,
)

F = Fraction


def arr(*coeffs):
    return np.array(coeffs, dtype=np.int64)


def w_squared(xs: WeightVector, sel: PrefixSelection) -> Fraction:
    """The square certified_coeff^2 * rho of the certified sum W."""
    return sel.certified_coeff**2 * xs.rho


def fields(sel: PrefixSelection) -> tuple:
    """The fields of a selection but its certified sum, order as a list."""
    return (sel.order.tolist(), sel.chosen_i, sel.index_set, sel.window_lo, sel.window_hi)


class TestWeightVector:
    def test_validation(self):
        # only numpy arrays of integers are coefficients
        for bad in ((2,), [2], np.array([F(1, 2)], dtype=object), np.array([2.0], dtype=object)):
            with pytest.raises(ValueError):
                WeightVector(rho=F(1, 4), coeffs=bad)
        with pytest.raises(ValueError):
            WeightVector(rho=F(0), coeffs=arr(1))
        # boundary value exactly 1 is fine, also as Python ints past int64
        WeightVector(rho=F(1, 4), coeffs=arr(2))
        WeightVector(rho=F(1, 1 << 128), coeffs=np.array([1 << 64], dtype=object))


def test_single_weight():
    w = WeightVector(rho=F(1), coeffs=arr(1))
    sel = select_index_set(w, F(1, 2))
    assert sel.index_set == (0,)
    assert sel.chosen_i == 1
    assert sel.certified_coeff == 1
    assert st_failures(w, F(1, 2), sel)[0] == []


def test_four_equal_weights_picks_a_pair():
    # S = 4, T = 4, alpha = 1/2: the mass test forces at least two weights,
    # and the first window length already satisfies the size branch.
    w = WeightVector(rho=F(1), coeffs=arr(1, 1, 1, 1))
    sel = select_index_set(w, F(1, 2))
    assert sel.chosen_i == 2
    assert sel.index_set == (0, 1)  # stable: ties keep original order
    assert sel.window_lo == 2 and sel.window_hi == 4
    assert w_squared(w, sel) == 4  # sum is 2 = 2*sqrt(1)
    assert st_failures(w, F(1, 2), sel)[0] == []


def test_same_values_different_scaling_agree():
    # identical real weights 1/2, 1/3, 1/4, 1/5 over two different radicands
    a = WeightVector(rho=F(1, 3600), coeffs=arr(30, 20, 15, 12))
    b = WeightVector(rho=F(1, 3600 * 49), coeffs=arr(210, 140, 105, 84))
    for alpha in (F(1, 2), F(3, 4), F(39, 40)):
        sa = select_index_set(a, alpha)
        sb = select_index_set(b, alpha)
        assert sa.index_set == sb.index_set
        assert sa.order.tolist() == sb.order.tolist()
        assert sb.certified_coeff == 7 * sa.certified_coeff
        assert w_squared(a, sa) == w_squared(b, sb)


def test_alpha_out_of_range():
    w = WeightVector(rho=F(1), coeffs=arr(1))
    for alpha in (F(0), F(1), F(-1, 2), F(5, 4)):
        with pytest.raises(ValueError):
            select_index_set(w, alpha)


def test_adversarial_near_threshold_vector():
    # x_i = 1 - 1/i: slowly growing weights with lots of near-ties; the i=1
    # entry is an honest zero weight.
    n = 40
    w = weight_vector(F(1), (1 - F(1, i) for i in range(1, n + 1)))
    for alpha in (F(1, 2), F(3, 4), F(39, 40)):
        sel = select_index_set(w, alpha)
        assert st_failures(w, alpha, sel)[0] == []


def test_selection_is_a_descending_prefix():
    w = WeightVector(rho=F(1, 100), coeffs=arr(3, 7, 7, 1, 0, 9))
    sel = select_index_set(w, F(2, 3))
    # order must sort values descending, stable on ties, up to the window's end
    assert len(sel.order) == sel.window_hi <= 6 and sel.weight_count == 6
    assert sel.order.tolist() == [5, 1, 2, 0, 3, 4][: sel.window_hi]
    assert sel.index_set == tuple(sorted(sel.order[: sel.chosen_i].tolist()))
    assert sel.window_lo <= sel.chosen_i <= sel.window_hi
    assert st_failures(w, F(2, 3), sel)[0] == []


def test_seeded_random_vectors_pass_the_oracle():
    rng = SplitMix64(77)
    for trial in range(50):
        n = 1 + rng.below(50)
        coeffs = arr(*(rng.below(10**6) for _ in range(n)))
        if coeffs.max() == 0:
            coeffs[0] = 1
        rho = F(1, int(coeffs.max()) ** 2)
        w = WeightVector(rho=rho, coeffs=coeffs)
        alpha = F(1 + rng.below(38), 40)
        sel = select_index_set(w, alpha)
        assert isinstance(sel, PrefixSelection)
        assert st_failures(w, alpha, sel)[0] == [], trial


def _three_forms(ints, rho, scale):
    """The same weights as an int64 array, and as an int tuple and Fractions
    c / L with radicand rho * L^2, both written as arrays by weight_vector."""
    return (
        WeightVector(rho=rho, coeffs=np.array(ints, dtype=np.int64)),
        weight_vector(rho, tuple(ints)),
        weight_vector(rho * scale * scale, (F(c, scale) for c in ints)),
    )


def test_array_tuple_and_fraction_coefficients_agree():
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
        w_arr, w_int, w_frac = _three_forms(ints, rho, scale)
        sel_arr, sel_int, sel_frac = (select_index_set(w, alpha) for w in (w_arr, w_int, w_frac))
        assert fields(sel_arr) == fields(sel_int) == fields(sel_frac), trial
        assert sel_arr.certified_coeff == sel_int.certified_coeff
        assert w_squared(w_frac, sel_frac) == w_squared(w_int, sel_int)
        for w, sel in ((w_arr, sel_arr), (w_int, sel_int), (w_frac, sel_frac)):
            assert st_failures(w, alpha, sel)[0] == [], trial


def test_selection_past_int64_takes_the_object_path():
    # len * max^2 = 4 * 2^62 = 2^64 does not fit in int64, although every
    # coefficient does
    ints = [1 << 31, 1 << 31, 3, (1 << 31) - 1]
    rho = F(1, 1 << 62)
    w_arr, w_int, w_frac = _three_forms(ints, rho, 7)
    for w in (w_arr, w_int, w_frac):
        assert _integer_coeffs(w).dtype == object
    small = WeightVector(rho=rho, coeffs=np.array(ints[:1], dtype=np.int64))
    assert _integer_coeffs(small).dtype == np.int64
    alpha = F(3, 4)
    sel = select_index_set(w_arr, alpha)
    sel_int = select_index_set(w_int, alpha)
    assert fields(sel_int) == fields(sel) and sel_int.certified_coeff == sel.certified_coeff
    assert select_index_set(w_frac, alpha).index_set == sel.index_set
    assert len(sel.order) == sel.window_hi <= 4 and sel.weight_count == 4
    assert sel.order.tolist() == [0, 1, 3, 2][: sel.window_hi]
    for w in (w_arr, w_int, w_frac):
        assert st_failures(w, alpha, select_index_set(w, alpha))[0] == []


def reference_selection(coeffs: list, rho: Fraction, alpha: Fraction) -> tuple:
    """The selection by its definition on Python ints, over the full stable
    descending order of all the weights: (that order, chosen_i, index_set,
    certified_coeff, window_lo, window_hi)."""
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
    return order, i, tuple(sorted(order[:i])), prefix[i], k, ell


@settings(max_examples=150, deadline=None)
@given(
    small=st.lists(st.integers(0, 5), min_size=1, max_size=60).filter(any),
    alpha=st.integers(1, 39).map(lambda t: F(t, 40)),
    spread=st.integers(1, 4),
    wide=st.booleans(),
)
def test_selection_sorts_only_the_window(small, alpha, spread, wide):
    # few distinct values, so ties are common; wide scales them past what
    # int64 sums hold, onto the object path
    shift = 32 if wide else 0
    ints = [c << shift for c in small]
    rho = F(1, max(ints) ** 2 * spread)
    w = WeightVector(rho=rho, coeffs=np.array(ints, dtype=object if wide else np.int64))
    assert _integer_coeffs(w).dtype == (object if wide else np.int64)
    sel = select_index_set(w, alpha)
    order, chosen, index_set, coeff, lo, hi = reference_selection(ints, rho, alpha)
    assert (sel.chosen_i, sel.index_set, sel.certified_coeff) == (chosen, index_set, coeff)
    assert (sel.window_lo, sel.window_hi, sel.weight_count) == (lo, hi, len(ints))
    assert sel.order.dtype == np.int64 and len(sel.order) == hi
    assert sel.order.tolist() == order[:hi]


def test_weight_vector_checks_arrays_without_boxing():
    w = WeightVector(rho=F(1, 16), coeffs=np.array([4, 0, 2], dtype=np.int64))
    assert isinstance(w.coeffs, np.ndarray) and len(w) == 3
    for bad in (
        np.array([], dtype=np.int64),
        np.array([0, 0], dtype=np.int64),
        np.array([-1, 2], dtype=np.int64),
        np.array([5], dtype=np.int64),  # 5 * sqrt(1/16) > 1
        np.array([1.0]),
        np.array([[1]], dtype=np.int64),
    ):
        with pytest.raises(ValueError):
            WeightVector(rho=F(1, 16), coeffs=bad)
