import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import translate

from bsgx.errors import AsetFormatError
from bsgx.groups import (
    AdditiveSet,
    GroupSpec,
    parse_set,
    serialize_set,
)

Z = GroupSpec((0,))


def test_group_spec_basics():
    spec = GroupSpec((0, 5))
    assert spec.dim == 2
    assert spec.zero() == (0, 0)
    assert spec.reduce((-3, 7)) == (-3, 2)
    # an element is canonical when reduce leaves it as it is, which the
    # checked constructor requires
    assert spec.reduce((-3, 2)) == (-3, 2)
    assert AdditiveSet(spec, ((-3, 2),)).elements == ((-3, 2),)
    assert spec.reduce((0, 5)) != (0, 5)
    with pytest.raises(ValueError, match="not canonical"):
        AdditiveSet(spec, ((0, 5),))
    with pytest.raises(ValueError, match="coordinates"):
        spec.reduce((0,))  # wrong arity
    with pytest.raises(ValueError, match="coordinates"):
        AdditiveSet(spec, ((0,),))


def test_group_spec_rejects_bad_moduli():
    with pytest.raises(ValueError):
        GroupSpec(())
    with pytest.raises(ValueError):
        GroupSpec((1,))
    with pytest.raises(ValueError):
        GroupSpec((0, -3))


def test_arithmetic_rejects_wrong_arity():
    # element arithmetic goes through GroupSpec.reduce, which takes exactly
    # one coordinate per modulus
    for spec, coords in (
        (Z, (1, 2)),
        (Z, ()),
        (GroupSpec((0, 7)), (3,)),
        (GroupSpec((0, 7)), (1, 2, 3)),
    ):
        with pytest.raises(ValueError, match="coordinates"):
            spec.reduce(coords)


def test_from_elements_canonicalizes():
    spec = GroupSpec((5,))
    a = AdditiveSet.from_elements(spec, [(7,), (2,), (-3,), (0,)])
    assert a.elements == ((0,), (2,))  # 7 and -3 collapse onto 2
    assert len(a) == 2
    assert (2,) in a
    assert (7,) not in a  # membership is on canonical forms
    assert type(AdditiveSet.from_elements(spec, [(np.int64(-3),)]).elements[0][0]) is int  # numpy scalars become ints
    with pytest.raises(ValueError, match="nonempty"):
        AdditiveSet.from_elements(spec, [])
    with pytest.raises(ValueError, match="coordinates"):
        AdditiveSet.from_elements(spec, [(1,), (2, 3)])


def test_direct_construction_is_strict():
    with pytest.raises(ValueError):
        AdditiveSet(Z, ())
    with pytest.raises(ValueError):
        AdditiveSet(Z, ((1,), (0,)))  # out of order
    with pytest.raises(ValueError):
        AdditiveSet(Z, ((0,), (0,)))  # duplicate
    with pytest.raises(ValueError):
        AdditiveSet(GroupSpec((5,)), ((6,),))  # not canonical
    with pytest.raises(ValueError):
        AdditiveSet(Z, ((1, 2),))  # wrong arity
    # a coordinate that int would change is not canonical
    for coord in ("1", 1.5):
        with pytest.raises(ValueError, match="not canonical"):
            AdditiveSet(Z, ((coord,),))


def test_subset_by_rows_equals_the_validated_set():
    a = AdditiveSet.from_elements(GroupSpec((0, 7)), [(x, x * x) for x in range(-6, 9)])
    for rows in ([0], [3, 4, 11], range(0, 15, 2), range(15)):
        sub_set = a.subset(np.array(rows))
        validated = AdditiveSet(a.spec, tuple(a.elements[i] for i in rows))
        assert sub_set == validated and hash(sub_set) == hash(validated)
        assert sub_set.as_set == validated.as_set
    assert a.subset(range(15)) == a
    # only the indices are checked: empty, repeated, unordered or out of range
    for rows in ([], [2, 2], [4, 1], [-1, 3], [14, 15]):
        with pytest.raises(ValueError):
            a.subset(rows)


def test_translate_is_a_bijection():
    spec = GroupSpec((0, 3))
    a = AdditiveSet.from_elements(spec, [(0, 0), (1, 2), (4, 1)])
    t = translate(a, (5, 2))
    assert len(t) == len(a)
    assert t.elements == ((5, 2), (6, 1), (9, 0))


ASET_OK = b"aset 1\ndim 2\nmod 0 5\n# a comment\n0 0\n1 7\n-2 3\n"


def test_parse_reduces_and_sorts():
    a = parse_set(ASET_OK)
    assert a.spec == GroupSpec((0, 5))
    assert a.elements == ((-2, 3), (0, 0), (1, 2))


def test_parse_accepts_str_and_bytes():
    assert parse_set(ASET_OK) == parse_set(ASET_OK.decode("utf-8"))


def test_serialize_round_trip():
    a = parse_set(ASET_OK)
    data = serialize_set(a)
    assert data.endswith(b"\n")
    assert parse_set(data) == a


@pytest.mark.parametrize(
    "text",
    [
        "",
        "aset 1\ndim 1\nmod 0\n",            # no elements
        "aset 2\ndim 1\nmod 0\n0\n",          # wrong version
        "bset 1\ndim 1\nmod 0\n0\n",          # wrong magic
        "aset 1\ndim x\nmod 0\n0\n",          # bad dimension
        "aset 1\ndim 0\nmod\n0\n",            # dim < 1
        "aset 1\ndim 2\nmod 0\n0 0\n",        # mod count mismatch
        "aset 1\ndim 1\nmod 1\n0\n",          # modulus 1 is not a group here
        "aset 1\ndim 1\nmod 0\n1 2\n",        # arity mismatch in element
        "aset 1\ndim 1\nmod 0\nzz\n",         # non-integer coordinate
        "aset 1\ndim 1\nmoduli 0\n0\n",       # bad mod keyword
    ],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(AsetFormatError):
        parse_set(text)


@pytest.mark.parametrize(
    "lines, message",
    [
        (["0", " 1 2 ", "zz"], "element line '1 2' has 2 coordinates, expected 1"),
        (["0", "zz", "1 2"], "bad coordinate in 'zz'"),
        (["# only", "  ", "3 x"], "element line '3 x' has 2 coordinates, expected 1"),
    ],
)
def test_parse_names_the_first_bad_element_line(lines, message):
    text = "aset 1\ndim 1\nmod 5\n" + "\n".join(lines) + "\n"
    with pytest.raises(AsetFormatError) as info:
        parse_set(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "header, message",
    [
        ("aset 1\ndims 1\nmod 0", "bad dim line 'dims 1'"),
        ("aset 1\ndim 1 2\nmod 0", "bad dim line 'dim 1 2'"),
        ("aset 1\ndim 2\nmod 0 x", "bad modulus in 'mod 0 x'"),
        # GroupSpec's own check, re-raised with its text
        ("aset 1\ndim 2\nmod 0 1", "modulus must be 0 or >= 2, got 1"),
        ("aset 1\ndim 1\nmod -3", "modulus must be 0 or >= 2, got -3"),
    ],
)
def test_parse_names_a_bad_header_line(header, message):
    with pytest.raises(AsetFormatError) as info:
        parse_set(header + "\n0\n")
    assert str(info.value) == message


def test_parse_rejects_non_utf8():
    with pytest.raises(AsetFormatError):
        parse_set(b"aset 1\xff\ndim 1\nmod 0\n0\n")


# property: parse(serialize(.)) is the identity on canonical sets

coord = st.integers(min_value=-(10**9), max_value=10**9)


@st.composite
def additive_sets(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    moduli = tuple(
        draw(st.sampled_from([0, 0, 2, 3, 5, 12, 97])) for _ in range(dim)
    )
    spec = GroupSpec(moduli)
    elems = draw(
        st.lists(
            st.tuples(*[coord for _ in range(dim)]), min_size=1, max_size=20
        )
    )
    return AdditiveSet.from_elements(spec, elems)


@given(additive_sets())
@settings(max_examples=100, deadline=None)
def test_round_trip_property(a):
    assert parse_set(serialize_set(a)) == a


@st.composite
def aset_texts(draw):
    """ASET text with free and cyclic coordinates, negatives, duplicates,
    residues outside [0, m), comment and blank lines and stray blanks, and
    the raw tuples it lists."""
    dim = draw(st.integers(min_value=1, max_value=3))
    moduli = tuple(draw(st.sampled_from([0, 0, 2, 7, 1 << 64])) for _ in range(dim))
    raw = draw(st.lists(st.tuples(*[st.integers(-(1 << 70), 1 << 70) | st.integers(-9, 9)] * dim), min_size=1, max_size=12))
    raw += draw(st.lists(st.sampled_from(raw), max_size=4))  # duplicates
    pad = st.sampled_from(["", " ", "\t", "  "])
    lines = ["aset 1", f"dim {dim}", "mod " + " ".join(map(str, moduli))]
    for e in raw:
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["# a comment", "  # 1 2 3", "", "   "])))
        lines.append(draw(pad) + " ".join(map(str, e)) + draw(pad))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n# end\n"])), moduli, raw


@given(aset_texts())
@settings(max_examples=200, deadline=None)
def test_parse_equals_the_canonicalized_tuples(drawn):
    text, moduli, raw = drawn
    a = parse_set(text)
    assert a == AdditiveSet.from_elements(GroupSpec(moduli), raw)
    assert AdditiveSet(a.spec, a.elements) == a  # the checked constructor accepts it
    assert all(type(c) is int for e in a.elements for c in e)
