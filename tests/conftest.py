"""Shared pytest plumbing and test-side helpers.

test_acceptance.py appends one line per top-level check to ACCEPTANCE_LINES;
the hook below prints the whole block after the test summary, so the
pass/fail lines are visible in a plain ``pytest -v`` run (no -s needed).

The helpers below count energies and difference sets over element pairs,
list a rep table's (difference, count) pairs, build relations from elements rather than rep-table codes, recount
neighbourhoods by their definitions and write rational weights as integer
arrays; the library needs none of them.  Test modules import them
with ``from conftest import ...``.
"""

import math
import operator
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, Iterator, Tuple

import numpy as np

import bsgx.additive_stats as additive_stats
from bsgx.groups import AdditiveSet, Element, GroupSpec, add
from bsgx.numeric_lemma import WeightVector
from bsgx.relation_lemma import Relation, exact_float

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
    shifted = sorted(add(a_set.spec, a, t) for a in a_set.elements)
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
