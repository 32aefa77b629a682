"""Shared pytest plumbing and test-side helpers.

test_acceptance.py appends one line per top-level check to ACCEPTANCE_LINES;
the hook below prints the whole block after the test summary, so the
pass/fail lines are visible in a plain ``pytest -v`` run (no -s needed).

The helpers below build small sets, count energies and difference sets
over element pairs, list a rep table's (difference, count) pairs, build
relations from elements rather than rep-table codes, recount neighbourhoods
by their definitions and select over rational weights written as integer
counts (select_rational); the library needs none of them.  traced runs a
call while it spies on the numpy searches and gathers that tell
RepTable.lookup's routes apart.  ROUTES is the one table of forced routes:
forced runs a block on one of them, and route_labels names the routes a
block took.  GOLDEN_BASES are the base sets of the golden reports.
branch_p_reference is branch P by its definitions, scoring every popular
d.  tv_failures and st_failures are the reference checks of the two lemmas
behind branch Q, the 3-step-path filter and the prefix selection: each
recounts its witness from the definitions and names the properties it
breaks.  Test modules import them with ``from conftest import ...``.
"""

import math
import operator
from collections import Counter, namedtuple
from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np
import pytest

import bsgx.additive_stats as additive_stats
import bsgx.oracle as oracle
from bsgx import _codec, gen_ap, gen_axis, gen_ball, gen_random
from bsgx.groups import AdditiveSet, Element, GroupSpec
from bsgx.numeric_lemma import PrefixSelection, select_index_set
from bsgx.relation_lemma import Relation, TvWitness, exact_float

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance summary")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def pure_pairs(a, op):
    """op(x, y) for every ordered pair of a, cyclic coordinates reduced, inline."""
    moduli = a.spec.moduli
    if all(moduli):
        return (tuple(map(operator.mod, map(op, x, y), moduli)) for x in a for y in a)
    return (tuple(c % m if m else c for c, m in zip(map(op, x, y), moduli)) for x in a for y in a)


def _counted_pairs(a, op):
    """op(x, y) for every ordered pair of a, for counting: each coordinate
    mod its modulus, a free one's 4 max|c| + 1, which keeps apart every sum
    and every difference of two of its values."""
    moduli = [m or 4 * max(abs(e[k]) for e in a) + 1 for k, m in enumerate(a.spec.moduli)]
    return (tuple(map(operator.mod, map(op, x, y), moduli)) for x in a for y in a)


def pure_energy(a):
    """E(A) as the sum of p(s)^2, where p(s) counts the ordered pairs with a + b = s.

    Counting through sums is the transposed route from the library's, which
    counts differences; it uses no numpy and no code from bsgx.groups.
    """
    sums = Counter(_counted_pairs(a, operator.add))
    return sum(c * c for c in sums.values())


def pure_diff_size(a):
    return len(set(_counted_pairs(a, operator.sub)))


def zset(*vals) -> AdditiveSet:
    return AdditiveSet.from_elements(GroupSpec((0,)), [(v,) for v in vals])


def cyclic(m: int, xs: Iterable[int]) -> AdditiveSet:
    return AdditiveSet.from_elements(GroupSpec((m,)), [(x % m,) for x in xs])


def scaled(a: AdditiveSet, factor: int, extra: tuple = ()) -> AdditiveSet:
    """The copy of a with every coordinate and modulus multiplied by factor, plus extra."""
    return AdditiveSet.from_elements(
        GroupSpec(tuple(m * factor for m in a.spec.moduli)),
        [tuple(c * factor for c in e) for e in a.elements] + list(extra),
    )


def sub(spec: GroupSpec, a: Element, b: Element) -> Element:
    """a - b, with cyclic coordinates reduced."""
    return spec.reduce([x - y for x, y in zip(a, b)])


_DECODE_CHUNK = 1 << 16


def rep_items(rep: additive_stats.RepTable) -> Iterator[Tuple[Element, int]]:
    """(difference, count) pairs of a rep table in lexicographic difference order."""
    for start in range(0, len(rep.codes), _DECODE_CHUNK):
        block = slice(start, start + _DECODE_CHUNK)
        yield from zip(rep.coder.decode(rep.codes[block]), rep.counts[block].tolist())


def difference_relation(base: AdditiveSet, members: Iterable[Element]) -> Relation:
    """The relation {(a, b) : a - b in members}, built from rep-table codes.

    Members are reduced first; those that are not differences of base add
    nothing to the relation.
    """
    rep = additive_stats.rep_table(base)
    wanted = {base.spec.reduce(m) for m in members}
    keep = np.array([d in wanted for d, _ in rep_items(rep)], dtype=np.bool_)
    return Relation.from_difference_set(rep, rep.codes[keep])


def relation_from_index_pairs(base: AdditiveSet, pairs: Iterable[Tuple[int, int]]) -> Relation:
    """The relation holding (a_i, a_j) for each index pair (i, j)."""
    n = len(base)
    matrix = np.zeros((n, n), dtype=np.bool_)
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"index pair ({i}, {j}) out of range for |A|={n}")
        matrix[i, j] = True
    return Relation(base, matrix)


def relation_from_element_pairs(
    base: AdditiveSet, pairs: Iterable[Tuple[Element, Element]]
) -> Relation:
    index = {a: i for i, a in enumerate(base.elements)}
    return relation_from_index_pairs(base, ((index[a], index[b]) for a, b in pairs))


def neighborhoods(relation: Relation) -> Dict[Element, frozenset]:
    """N(x) = {a : (a, x) in R} for every x in the base set."""
    base = relation.base
    out = {}
    for j, x in enumerate(base.elements):
        rows = np.flatnonzero(relation.matrix[:, j])
        out[x] = frozenset(base.elements[i] for i in rows)
    return out


def common_counts(relation: Relation) -> Dict[Tuple[Element, Element], int]:
    """|{x : a in N(x) and a' in N(x)}| for every ordered pair (a, a')."""
    m = relation.matrix.astype(exact_float(len(relation.base)))
    counts = m @ m.T
    elems = relation.base.elements
    return {
        (a, b): int(counts[i, j])
        for i, a in enumerate(elems)
        for j, b in enumerate(elems)
    }


def traced(call, *args, **kwargs):
    """call(*args, **kwargs), whether it searched with np.searchsorted, and the
    shapes of the arrays it gathered from with np.take."""
    searched, taken = [], set()
    search, take = np.searchsorted, np.take

    def spy_search(*a, **k):
        searched.append(True)
        return search(*a, **k)

    def spy_take(a, *rest, **k):
        taken.add(a.shape)
        return take(a, *rest, **k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "searchsorted", spy_search)
        patch.setattr(np, "take", spy_take)
        result = call(*args, **kwargs)
    return result, bool(searched), taken


# the base sets of the golden reports
GOLDEN_BASES = {
    "ap:40,3,7": lambda: gen_ap(40, 3, 7),
    "ball:3,4": lambda: gen_ball(3, 4),
    "ball:2,9": lambda: gen_ball(2, 9),
    "axis:23,3": lambda: gen_axis(23, 3),
    "random:80,521,2": lambda: gen_random(80, 521, 2),
    "random:63,127,7": lambda: gen_random(63, 127, 7),
    "random:60,2^64,5 in Z_(2^64+13)": lambda: cyclic((1 << 64) + 13, [x for (x,) in gen_random(60, 1 << 64, 5)]),
    "[0,400) with 10^6,10^6+1": lambda: zset(*range(400), 10**6, 10**6 + 1),
    "[0,200) with -485,-427,-413": lambda: zset(*range(200), -485, -427, -413),
    "10Z_2000 with 1,2": lambda: cyclic(2000, [*range(0, 2000, 10), 1, 2]),
}


def _caps(bits: int) -> dict:
    """The code dtype caps cut to the one b-bit dtype."""
    return {t: caps for t, caps in _codec._CAPS.items() if t.itemsize * 8 == bits}


def _widest_radix(a: AdditiveSet) -> int:
    """The widest radix of a's oracle columns, at most the key limit: set as
    the limit, it ranks every key of two or more columns."""
    return min(max(c.radix for c in oracle._coordinates(a)), oracle._KEY_LIMIT)


def _pair_cells(a: AdditiveSet) -> int:
    """The budget cells of an oracle pass over the pairs of a alone; the r(d)
    pass, which also looks up d* or Q', needs more."""
    ranked = math.prod(c.radix for c in oracle._coordinates(a)) > oracle._KEY_LIMIT
    return len(a) ** 2 * (oracle._RANKED_CELL_COST if ranked else 1)


# the routes that no input set chooses by itself: each row sets one module
# attribute to a value, or to a function of the input set, and route_labels
# shows its marker where it runs; every run on it must match the default's
Route = namedtuple("Route", "module attr value marker")
ROUTES = {
    # code maps in two levels, where the live or thin codes sit on few pages
    "1024 cells": Route(_codec, "BLOCK_CELLS", 1024, "lookup:two levels"),
    # one-row blocks for every n x n scan, and code maps that search
    "8 cells": Route(_codec, "BLOCK_CELLS", 8, "lookup:search"),
    "int32 codes": Route(_codec, "_CAPS", _caps(32), "codes:int32"),
    "int64 codes": Route(_codec, "_CAPS", _caps(64), "codes:int64"),
    "Python-int codes": Route(_codec, "_CAPS", {}, "codes:object"),
    "uint64 keys": Route(oracle, "_NARROW_LIMIT", 0, "keys:uint64"),
    "ranked keys": Route(oracle, "_KEY_LIMIT", _widest_radix, "keys:ranked"),
    # the r(d) pass over budget, so A' = A takes its own |A'-A'| pass
    "own A' pass": Route(oracle, "_BUDGET_CELLS", _pair_cells, "pass:|A'-A'|"),
}


@contextmanager
def forced(name: Optional[str], a: Optional[AdditiveSet] = None):
    """Run the block on the route ROUTES[name] for the input set a; None is the default route."""
    with pytest.MonkeyPatch.context() as patch:
        if name is not None:
            module, attr, value, _ = ROUTES[name]
            patch.setattr(module, attr, value(a) if callable(value) else value)
        yield


@contextmanager
def route_labels():
    """The labels of the routes that run in the block: the dtype of each codec
    built, the level of each code map called, the key dtype of each oracle
    pass (or "ranked" where it ranks), and the label of each oracle pass."""
    labels = set()
    spies = {
        (_codec, "_radix_codec"): lambda args, codec: f"codes:{codec.strides.dtype}",
        (oracle, "_keys"): lambda args, _: f"keys:{args[-1].__name__}",
        (oracle, "_ranks"): lambda args, _: "keys:ranked",
        (oracle, "_histogram"): lambda args, _: f"pass:{args[2]}",
    }
    lookup = additive_stats.RepTable.lookup

    def spy_lookup(rep, *args):
        mapped = lookup(rep, *args)

        def spied(codes, out=None):
            found, searched, taken = traced(mapped, codes, out=out)
            if searched or taken:
                labels.add("lookup:" + ("search" if searched else ("one level", "two levels")[len(taken) - 1]))
            return found

        return spied

    def spy(call, label):
        def spied(*args):
            result = call(*args)
            labels.add(label(args, result))
            return result

        return spied

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(additive_stats.RepTable, "lookup", spy_lookup)
        for (module, name), label in spies.items():
            patch.setattr(module, name, spy(getattr(module, name), label))
        yield labels


def translate(a_set: AdditiveSet, t: Element) -> AdditiveSet:
    """The translate A + t (a bijection, so no dedup is needed)."""
    shifted = sorted(a_set.spec.reduce([x + y for x, y in zip(a, t)]) for a in a_set.elements)
    return AdditiveSet(a_set.spec, tuple(shifted))


def widen(a_set: AdditiveSet, wide: bool) -> AdditiveSet:
    """a_set, or with wide a copy with one more free coordinate fixed at 2^70.

    The copy is isomorphic to a_set, but its raw coordinates pass int64's
    coordinate cap in ``_codec._CAPS``, so ``build_codec`` returns None for it.
    """
    if not wide:
        return a_set
    spec = GroupSpec(a_set.spec.moduli + (0,))
    return AdditiveSet(spec, tuple(e + (1 << 70,) for e in a_set.elements))


def branch_p_reference(a: AdditiveSet, eps: Fraction) -> Tuple[Dict[Element, Tuple[Fraction, int]], tuple]:
    """Branch P by its definitions: every popular d's rank, and (d*, A*, s*, A').

    A popular d (r(d)^2 * n >= E) ranks by (eps * |A_d|^2 - 4 * s_d, |A_d|),
    with A_d = {x in A : x - d in A} and s_d the ordered pairs of A_d^2 whose
    difference has r <= eps^2 * E / (16 * n^2); d* is the first top-ranked d
    in lexicographic order, A* = A_d*, s* = s_d* and A' keeps the x in A*
    with at most |A*| / 4 such partners in A*.
    """
    elems = a.elements
    n = len(elems)
    diffs = [[sub(a.spec, x, y) for y in elems] for x in elems]
    r = Counter(d for row in diffs for d in row)
    e = sum(c * c for c in r.values())
    thin_floor = eps * eps * e // (16 * n * n)
    thin = np.array([[r[d] <= thin_floor for d in row] for row in diffs], dtype=np.int64)
    ranks, slices = {}, {}
    for d in sorted(r):
        if r[d] ** 2 * n >= e:
            s = np.array([sub(a.spec, x, d) in a.as_set for x in elems])
            slices[d] = s
            ranks[d] = (eps * int(s.sum()) ** 2 - 4 * int(thin[np.ix_(s, s)].sum()), int(s.sum()))
    d_star = max(ranks, key=ranks.get)  # the first of the top ranks
    star = np.flatnonzero(slices[d_star])
    partners = thin[np.ix_(star, star)].sum(axis=1)
    prime = star[4 * partners <= len(star)]
    s_star = int(thin[np.ix_(star, star)].sum())
    return ranks, (d_star, a.subset(star), s_star, a.subset(prime))


def select_rational(
    rho, coeffs: Iterable, alpha: Fraction
) -> Tuple[np.ndarray, Fraction, PrefixSelection]:
    """The weights c * sqrt(rho) for rational c as int64 counts, their radicand and selection.

    The weights are unchanged by (c, rho) -> (L * c, rho / L^2), where L is
    the common denominator of the c; select_index_set takes them in that
    form, the counts L * c over the radicand rho / L^2.
    """
    fracs = [Fraction(c) for c in coeffs]
    scale = math.lcm(*(c.denominator for c in fracs))
    counts = np.array([c.numerator * (scale // c.denominator) for c in fracs], dtype=np.int64)
    rho = Fraction(rho) / (scale * scale)
    return counts, rho, select_index_set(counts, rho, alpha)


def tv_failures(
    relation: Relation, witness: TvWitness, xi: Fraction
) -> Tuple[List[str], int, Optional[int]]:
    """The properties a 3-step-path witness breaks, its thin pairs and its fewest paths.

    The properties are: delta_matches (the relation's density), x_star_in_a,
    a_star_is_neighbourhood (A* = N(x*) = {a : (a, x*) in R}),
    witness_nesting (A' <= A* <= A), a_prime_size_floor
    (|A'| >= delta * (1-xi) * n), thin_pairs_in_a_star (the ordered pairs of
    A*^2 with at most delta^2 * xi^2 * n / 8 common right-neighbours) and
    triple_paths (every pair of A' is joined by at least
    2^-7 * delta^4 * xi^4 * n^2 * |A'| triples (x, b, y) with (a1, x),
    (b, x), (b, y), (a2, y) in R).  With C = R R^T the common-neighbour
    counts, those triples number (C_A' C_A'^T)[a1, a2] for the rows C_A' of
    C at A'.  The products run on int64, exact while n^3 < 2^63, in
    |A*|^2 * n + |A'| * n^2 + |A'|^2 * n multiply-adds; an element outside A
    gets a zero row.
    """
    base = relation.base
    n = len(base)
    m = len(witness.a_prime)
    delta = relation.delta
    index = {a: i for i, a in enumerate(base.elements)}
    r = np.zeros((n + 1, n), dtype=np.int64)
    r[:n] = relation.matrix
    star = r[[index.get(a, n) for a in witness.a_star.elements]]
    c_prime = r[[index.get(a, n) for a in witness.a_prime.elements]] @ r[:n].T
    thin = delta * delta * xi * xi * n / 8
    thin_pairs = int(np.count_nonzero(star @ star.T <= thin.numerator // thin.denominator))
    fewest = int((c_prime @ c_prime.T).min()) if m else None
    center = index.get(witness.x_star)
    column = () if center is None else np.flatnonzero(relation.matrix[:, center])
    holds = {
        "delta_matches": witness.delta == delta,
        "x_star_in_a": center is not None,
        "a_star_is_neighbourhood": witness.a_star.as_set == {base.elements[i] for i in column},
        "witness_nesting": witness.a_prime.as_set <= witness.a_star.as_set <= base.as_set,
        "a_prime_size_floor": m >= delta * (1 - xi) * n,
        "thin_pairs_in_a_star": witness.omega_card_in_astar == thin_pairs,
        "triple_paths": not m or fewest >= delta**4 * xi**4 * n * n * m / 128,
    }
    return [name for name, ok in holds.items() if not ok], thin_pairs, fewest


def st_failures(
    coeffs: np.ndarray, rho: Fraction, alpha: Fraction, sel: PrefixSelection
) -> Tuple[List[str], Tuple[Optional[int], int]]:
    """The properties a prefix selection breaks, and the window [k, l] it should have.

    With the weights coeffs[i] * sqrt(rho), S their sum and T the sum of
    their squares, index_set_matches asks that the index set be the first
    chosen_i entries of the stable descending order, sum_matches that
    certified_coeff be their count sum W, mass_branch that W >= alpha * T
    and size_branch that W^6 >= (1-alpha)^5 * chosen_i^4 * T^4 / (2^10 * S^2).
    The window runs from the first prefix reaching alpha * T to the last
    weight of at least (1-alpha) * T / (2 * S); window_matches checks its
    start against sel.window_lo, and chosen_in_window and
    window_has_valid_prefix check the rest.  Everything runs on Python ints,
    with rho and alpha Fractions; an index outside the weights adds nothing
    to W.
    """
    coeffs = coeffs.tolist()
    n = len(coeffs)
    # sorted is stable, and reverse=True keeps equal keys in index order
    order = sorted(range(n), key=coeffs.__getitem__, reverse=True)
    c_desc = [coeffs[i] for i in order]
    prefix = list(accumulate(c_desc))
    s = sum(coeffs)
    t = sum(c * c for c in coeffs) * rho

    def mass(p: int) -> bool:
        # W >= alpha * T, squared once to clear sqrt(rho)
        return p * p * rho >= alpha * alpha * t * t

    def size(p: int, length: int) -> bool:
        return p**6 * rho**3 >= (1 - alpha) ** 5 * length**4 * t**4 / (1024 * s * s * rho)

    k = next((i for i, p in enumerate(prefix, 1) if mass(p)), None)
    ell = max((i for i, c in enumerate(c_desc, 1) if 2 * c * s * rho >= (1 - alpha) * t), default=0)
    chosen = sel.chosen_i
    w = sum(coeffs[i] for i in sel.index_set if 0 <= i < n)
    holds = {
        "index_set_matches": sorted(order[:chosen]) == list(sel.index_set),
        "sum_matches": sel.certified_coeff == w,
        "mass_branch": mass(w),
        "size_branch": size(w, chosen),
        "window_matches": sel.window_lo == k,
        "chosen_in_window": k is not None and k <= chosen <= ell,
        "window_has_valid_prefix": k is not None
        and any(mass(prefix[i - 1]) and size(prefix[i - 1], i) for i in range(k, ell + 1)),
    }
    return [name for name, ok in holds.items() if not ok], (k, ell)
