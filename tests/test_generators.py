import pytest

from bsgx.additive_stats import energy
from bsgx.generators import (
    GenSpec,
    SplitMix64,
    gen_ap,
    gen_axis,
    gen_ball,
    gen_random,
    sample_subset,
)
from bsgx.groups import GroupSpec


def test_splitmix64_reference_vector():
    # published reference outputs for seed 1234567; any conforming
    # implementation of splitmix64 must reproduce these five values
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def test_splitmix64_below_is_unbiased_rejection():
    rng = SplitMix64(5)
    vals = [rng.below(10) for _ in range(1000)]
    assert set(vals) <= set(range(10))
    assert len(set(vals)) == 10  # all residues show up over 1000 draws
    with pytest.raises(ValueError):
        rng.below(0)


def test_gen_ap():
    a = gen_ap(5)
    assert a.spec == GroupSpec((0,))
    assert a.elements == ((0,), (1,), (2,), (3,), (4,))
    b = gen_ap(4, start=10, step=-3)
    assert b.elements == ((1,), (4,), (7,), (10,))
    assert len(gen_ap(1)) == 1
    with pytest.raises(ValueError):
        gen_ap(0)
    with pytest.raises(ValueError):
        gen_ap(5, step=0)


def test_gen_axis_small():
    a = gen_axis(3, 2)
    assert a.spec == GroupSpec((3, 3))
    assert a.elements == ((0, 0), (0, 1), (0, 2), (1, 0), (2, 0))


@pytest.mark.parametrize("g,n", [(2, 1), (5, 2), (11, 2), (7, 4)])
def test_gen_axis_size_formula(g, n):
    assert len(gen_axis(g, n)) == n * (g - 1) + 1


def test_gen_axis_one_dim_is_full_group():
    a = gen_axis(9, 1)
    assert a.elements == tuple((i,) for i in range(9))


def test_gen_ball_examples():
    assert gen_ball(1, 4).elements == ((-2,), (-1,), (0,), (1,), (2,))
    assert len(gen_ball(2, 1)) == 5  # the cross
    assert len(gen_ball(2, 2)) == 9
    assert len(gen_ball(2, 25)) == 81
    assert len(gen_ball(3, 9)) == 123


def test_gen_ball_is_symmetric():
    a = gen_ball(3, 6)
    for x in a:
        assert a.spec.reduce([-c for c in x]) in a


def test_gen_ball_guards():
    with pytest.raises(ValueError):
        gen_ball(5, 1)  # dim too large
    with pytest.raises(ValueError):
        gen_ball(0, 1)
    with pytest.raises(ValueError):
        gen_ball(4, 10**6)  # grid too large
    with pytest.raises(ValueError):
        gen_ball(2, -1)
    # degenerate but accepted: radius 0 is the origin alone
    assert gen_ball(2, 0).elements == ((0, 0),)


@pytest.mark.parametrize(
    "build, args, message",
    [
        # GroupSpec would take a modulus of 0 as Z, and reject 1 and a
        # dimension of 0 with its own message
        (gen_axis, (0, 3), "modulus must be >= 2"),
        (gen_axis, (1, 3), "modulus must be >= 2"),
        (gen_axis, (5, 0), "dimension must be >= 1"),
        (gen_random, (1, 1, 0), "modulus must be >= 2"),
    ],
)
def test_generator_guards(build, args, message):
    with pytest.raises(ValueError, match=message):
        build(*args)


def test_gen_random_determinism_and_bounds():
    a = gen_random(63, 127, 7)
    b = gen_random(63, 127, 7)
    assert a == b
    assert len(a) == 63
    assert a.spec == GroupSpec((127,))
    assert gen_random(1, 50, 3).elements[0][0] < 50
    full = gen_random(11, 11, 8)
    assert full.elements == tuple((i,) for i in range(11))
    with pytest.raises(ValueError):
        gen_random(12, 11, 0)
    with pytest.raises(ValueError):
        gen_random(0, 11, 0)


def test_gen_random_different_seeds_differ():
    # not guaranteed in principle, but for these parameters it holds
    assert gen_random(20, 10**6, 1) != gen_random(20, 10**6, 2)


def test_sample_subset():
    a = gen_axis(101, 2)
    s = sample_subset(a, 127, 9000)
    assert len(s) == 127
    assert set(s.elements) <= set(a.elements)
    assert s == sample_subset(a, 127, 9000)
    assert s != sample_subset(a, 127, 9001)
    assert sample_subset(a, len(a), 5) == a
    with pytest.raises(ValueError):
        sample_subset(a, 202, 0)
    with pytest.raises(ValueError):
        sample_subset(a, 0, 0)


def test_ap_energy_independent_of_step():
    assert energy(gen_ap(10, 0, 3)).energy == energy(gen_ap(10)).energy


@pytest.mark.parametrize(
    "text,family,args",
    [
        ("ap:100", "ap", (100,)),
        ("ap:5,2,3", "ap", (5, 2, 3)),
        ("axis:101,3", "axis", (101, 3)),
        ("ball:2,25", "ball", (2, 25)),
        ("random:63,127,7", "random", (63, 127, 7)),
    ],
)
def test_genspec_parse(text, family, args):
    spec = GenSpec.parse(text)
    assert spec.family == family
    assert spec.args == args
    assert spec.build() is not None
    assert ":" in spec.label()


@pytest.mark.parametrize(
    "text",
    [
        "ap",            # no args
        "ap:",           # empty args
        "ap:1,2,3,4",    # too many
        "axis:101",      # too few
        "ball:2",        # too few
        "random:63,127", # missing seed
        "prime:10",      # unknown family
        "ap:x",          # not an integer
    ],
)
def test_genspec_parse_rejects(text):
    with pytest.raises(ValueError):
        GenSpec.parse(text)


@pytest.mark.parametrize("text", ["ap:1,,2", "ap:5,", "random:,63,127,7", "ap:1, ,2"])
def test_genspec_parse_rejects_an_empty_argument(text):
    with pytest.raises(ValueError, match="bad arguments"):
        GenSpec.parse(text)


@pytest.mark.parametrize("text", ["ap", "ap:", "ap: "])
def test_genspec_parse_reads_no_text_as_no_arguments(text):
    with pytest.raises(ValueError, match=r"takes \(1, 2, 3\) arguments, got 0"):
        GenSpec.parse(text)


@pytest.mark.parametrize("family, args", [("rand", (5, 7, 1)), ("ap", (1, 2, 3, 4)), ("axis", (11,))])
def test_genspec_rejects_an_unknown_family_or_argument_count(family, args):
    with pytest.raises(ValueError):
        GenSpec(family, args)


def test_genspec_build_matches_direct_call():
    assert GenSpec.parse("axis:11,2").build() == gen_axis(11, 2)
    assert GenSpec.parse("random:20,53,4").build() == gen_random(20, 53, 4)
