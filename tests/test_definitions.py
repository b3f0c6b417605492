"""Polar counts and orbit dimensions from the textbook definitions.

Extend D(e^i) = sum_j w_ij e^j to a p-form a = sum_I a_I e^I by the
Leibniz rule, with formal symbols w_ij.  The coefficient of e^K in D(a)
is a linear form in the n^2 symbols, a polar functional of a, and
contracting D(a) by the vectors of a coordinate subspace W keeps those
with K inside W.  c(W) of a structure is the rank of its generators'
functionals with K inside W, and the orbit dimension of a form is c(R^n)
(Bryant, Chern, Gardner, Goldschmidt and Griffiths, Exterior Differential
Systems, MSRI Publ. 18, Ch. III; Ivey and Landsberg, Cartan for
Beginners, Ch. 5).

The functionals, their sort signs and their ranks are computed here in
sympy.  edsx supplies only data: the generators' coefficient tables, read
through Scalar.coeffs().  The pinned values include the counts that
paper-check flags against the printed paper: su-odd:2 c(4) = 17 and
su-odd:3 c(6) = 34, and the orbit dimension 53 of the printed psu3
literal.
"""

from itertools import combinations
from random import Random

import pytest
import sympy
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from edsx.cartan import flag_test
from edsx.catalog import get_structure
from edsx.exterior import Form
from edsx.stability import PolarTable, stability


def _field(forms):
    """QQ, or QQ adjoined the square roots that the coefficients use."""
    roots = sorted({d for a in forms for c in a.terms.values()
                    for d in c.coeffs() if d != 1})
    if not roots:
        return QQ
    return QQ.algebraic_field(*[sympy.sqrt(d) for d in roots])


def _element(field, scalar):
    return field.from_sympy(sum(
        (sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(d)
         for d, q in scalar.coeffs().items()), sympy.Integer(0)))


def _sort_sign(idx):
    """The sign of the permutation that sorts idx."""
    inversions = sum(1 for x, y in combinations(idx, 2) if x > y)
    return -1 if inversions % 2 else 1


def _functionals(forms, field):
    """[(K, {(i, j): coefficient of w_ij in the e^K term of D(a)})]."""
    out = []
    for a in forms:
        by_k = {}
        for index, c in a.terms.items():
            c = _element(field, c)
            for t, i in enumerate(index):
                for j in range(1, a.n + 1):
                    image = index[:t] + (j,) + index[t + 1:]
                    if len(set(image)) < len(image):
                        continue
                    row = by_k.setdefault(tuple(sorted(image)), {})
                    term = c if _sort_sign(image) > 0 else -c
                    row[i, j] = row.get((i, j), field.zero) + term
        out.extend(by_k.items())
    return out


def _polar_count(functionals, field, n, indices):
    w = set(indices)
    rows = [[row.get((i, j), field.zero) for i in range(1, n + 1)
             for j in range(1, n + 1)]
            for K, row in functionals if w.issuperset(K)]
    if not rows:
        return 0
    return DomainMatrix(rows, (len(rows), n * n), field).rank()


@pytest.mark.parametrize("name,flag,c_values", [
    ("su-even:2", (1, 3, 2, 4), [0, 0, 3, 9, 13]),
    ("su-odd:2", (1, 3, 2, 5, 4), [0, 1, 5, 12, 17, 22]),
    ("su-even:3", (1, 3, 5, 2, 4, 6), [0, 0, 1, 5, 14, 22, 28]),
    ("su-odd:3", (1, 3, 5, 2, 4, 7, 6), [0, 1, 3, 8, 18, 27, 34, 41]),
])
def test_default_flag_polar_counts_from_the_leibniz_rule(name, flag,
                                                         c_values):
    s = get_structure(name)
    forms = list(s.generators.values())
    field = _field(forms)
    assert field == QQ
    functionals = _functionals(forms, field)
    got = [_polar_count(functionals, field, s.n, flag[:k])
           for k in range(s.n + 1)]
    assert got == c_values
    assert s.default_flag == flag
    assert flag_test(s).c_values == c_values


@pytest.mark.parametrize("name,gen,printed,orbit_dim", [
    ("psu3", "rho", False, 56),
    ("psu3", "rho", True, 53),
    ("g2", "phi", False, 35),
    ("spin7", "cayley", False, 43),
])
def test_orbit_dimensions_from_the_leibniz_rule(name, gen, printed,
                                                orbit_dim):
    a = get_structure(name, as_printed=printed).generators[gen]
    field = _field([a])
    assert field == (QQ.algebraic_field(sympy.sqrt(3)) if name == "psu3"
                     else QQ)
    got = _polar_count(_functionals([a], field), field, a.n,
                       range(1, a.n + 1))
    assert got == orbit_dim
    assert stability(a).orbit_dim == orbit_dim


def test_random_forms_polar_counts_from_the_leibniz_rule():
    # the catalog's forms are symmetric enough that their counts do not
    # move when every sort sign is dropped; on these seeded random forms
    # some do, so here a wrong sign on either side shows
    rng = Random("polar-definitions")
    for _ in range(40):
        n, p = rng.choice((5, 6, 7)), rng.choice((2, 3))
        subsets = list(combinations(range(1, n + 1), p))
        a = Form(n, {I: rng.choice((-2, -1, 1, 3))
                     for I in rng.sample(subsets, rng.randint(2, 6))})
        functionals = _functionals([a], QQ)
        table = PolarTable(n, [a])
        for k in range(p, n + 1):
            w = rng.sample(range(1, n + 1), k)
            assert _polar_count(functionals, QQ, n, w) == table.count(w), \
                (a, w)
