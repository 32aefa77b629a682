"""Shared pytest plumbing and test-side helpers.

test_acceptance.py appends one line per top-level check to ACCEPTANCE_LINES;
the hook below prints the whole block after the test summary, so the
pass/fail lines are visible in a plain ``pytest -v`` run (no -s needed).

The helpers below count energies and difference sets over element pairs,
list a rep table's (difference, count) pairs, build relations from elements
rather than rep-table codes, recount neighbourhoods by their definitions and
write rational weights as integer arrays; the library needs none of them.
tv_failures and st_failures are the reference checks of the two lemmas
behind branch Q, the 3-step-path filter and the prefix selection: each
recounts its witness from the definitions and names the properties it
breaks.  Test modules import them with ``from conftest import ...``.
"""

import math
import operator
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

import bsgx.additive_stats as additive_stats
from bsgx.groups import AdditiveSet, Element, GroupSpec
from bsgx.numeric_lemma import PrefixSelection, WeightVector
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


def pure_energy(a):
    """E(A) as the sum of p(s)^2, where p(s) counts the ordered pairs with a + b = s.

    Counting through sums is the transposed route from the library's, which
    counts differences; it uses no numpy and no code from bsgx.groups.
    """
    sums = Counter(pure_pairs(a, operator.add))
    return sum(c * c for c in sums.values())


def pure_diff_size(a):
    return len(set(pure_pairs(a, operator.sub)))


def sub(spec: GroupSpec, a: Element, b: Element) -> Element:
    """a - b, with cyclic coordinates reduced."""
    return spec.reduce([x - y for x, y in zip(a, b)])


_DECODE_CHUNK = 1 << 16


def rep_items(rep: additive_stats.RepTable) -> Iterator[Tuple[Element, int]]:
    """(difference, count) pairs of a rep table in lexicographic difference order."""
    for start in range(0, len(rep.codes), _DECODE_CHUNK):
        block = slice(start, start + _DECODE_CHUNK)
        yield from zip(rep.decode(rep.codes[block]), rep.counts[block].tolist())


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


def weight_vector(rho, coeffs: Iterable) -> WeightVector:
    """The weights c * sqrt(rho) for rational c, as WeightVector's integer array.

    The weights are unchanged by (c, rho) -> (L * c, rho / L^2), where L is
    the common denominator of the c; the array is int64 when L * c fits.
    """
    fracs = [Fraction(c) for c in coeffs]
    scale = math.lcm(*(c.denominator for c in fracs))
    ints = [c.numerator * (scale // c.denominator) for c in fracs]
    dtype = np.int64 if max(ints) < 1 << 63 else object
    return WeightVector(rho=Fraction(rho) / (scale * scale), coeffs=np.array(ints, dtype=dtype))


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
    weights: WeightVector, alpha: Fraction, sel: PrefixSelection
) -> Tuple[List[str], Tuple[Optional[int], int]]:
    """The properties a prefix selection breaks, and the window [k, l] it should have.

    With the weights c_i * sqrt(rho), S their sum and T the sum of their
    squares, order_matches asks that sel.order be the first l entries of
    the stable descending order, index_set_matches that the index set be
    the first chosen_i of it, sum_matches that certified_coeff be their
    coefficient sum W, mass_branch that W >= alpha * T and size_branch that
    W^6 >= (1-alpha)^5 * chosen_i^4 * T^4 / (2^10 * S^2).  The window runs
    from the first prefix reaching alpha * T to the last weight of at least
    (1-alpha) * T / (2 * S); window_matches, chosen_in_window and
    window_has_valid_prefix check it.  Everything runs on Python ints, with
    rho and alpha Fractions; an index outside the weights adds nothing to W.
    """
    rho = weights.rho
    coeffs = weights.coeffs.tolist()
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
        "order_matches": list(sel.order) == order[:ell],
        "index_set_matches": sorted(order[:chosen]) == list(sel.index_set),
        "sum_matches": sel.certified_coeff == w,
        "mass_branch": mass(w),
        "size_branch": size(w, chosen),
        "window_matches": (sel.window_lo, sel.window_hi) == (k, ell),
        "chosen_in_window": k is not None and k <= chosen <= ell,
        "window_has_valid_prefix": k is not None
        and any(mass(prefix[i - 1]) and size(prefix[i - 1], i) for i in range(k, ell + 1)),
    }
    return [name for name, ok in holds.items() if not ok], (k, ell)
