"""The field kernel and the exterior products against sympy.

sympy's DomainMatrix.rref over QQ, and over algebraic fields spanned by
three of the four square roots, is an independent implementation of the
same canonical form: pivots and every entry of the RREF must agree.  The
sparse core, eliminate(), must give what its dense entry rref() gives.
sympy's division in those fields is an independent inverse.  Wedge
coefficients are recomputed as shuffle sums with sympy's permutation
signs and sqrt arithmetic, and the Hodge star is held to a ^ *b =
<a, b> e^{1...n}.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from sympy import QQ, Integer, Rational, expand, sqrt
from sympy.combinatorics import Permutation
from sympy.polys.matrices import DomainMatrix

from edsx._kernel import (DIVISORS, PRIMES, eliminate, rref, s_from_fractions,
                          s_inv, s_mul, s_to_fractions)
from edsx.exterior import Form, hodge, wedge
from edsx.linalg import Matrix, rank
from edsx.scalar import Scalar


class Field:
    """A sympy field holding the radicals of `primes`, with a converter."""

    def __init__(self, primes):
        self.dom = QQ.algebraic_field(*[sqrt(p) for p in primes]) \
            if primes else QQ
        gens = {p: self.dom.from_sympy(sqrt(p)) for p in primes}
        self.masks = []
        self.unit = {}
        for mask in range(16):
            used = [p for k, p in enumerate(PRIMES) if mask >> k & 1]
            if all(p in gens for p in used):
                e = self.dom.one
                for p in used:
                    e = e * gens[p]
                self.masks.append(mask)
                self.unit[mask] = e

    def to_sympy(self, c):
        acc = self.dom.zero
        for mask, q in c.items():
            acc += self.dom.convert(QQ(q.numerator, q.denominator)) \
                * self.unit[mask]
        return acc

    def matrix(self, rows, ncols):
        data = [[self.to_sympy(c) for c in row] for row in rows]
        return DomainMatrix(data, (len(rows), ncols), self.dom)


@pytest.fixture(scope="module")
def fields():
    return [Field(()), Field((2, 3, 5)), Field((2, 5, 7))]


def _scalar(rng, field, density):
    if rng.random() > density:
        return {}
    out = {}
    for _ in range(rng.randrange(1, 3)):
        q = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        if q:
            out[rng.choice(field.masks)] = q
    return out


def _matrix(rng, field, nrows, ncols):
    density = rng.choice((0.25, 0.5, 1.0))
    rows = [[_scalar(rng, field, density) for _ in range(ncols)]
            for _ in range(nrows)]
    if nrows > 1:
        shape = rng.randrange(4)
        i, k = rng.sample(range(nrows), 2)
        if shape == 0:
            rows[i] = [{} for _ in range(ncols)]
        elif shape == 1:
            rows[i] = [dict(c) for c in rows[k]]
        elif shape == 2:
            f = s_from_fractions(
                {rng.choice(field.masks): Fraction(rng.randrange(1, 4), 2)})
            rows[i] = [s_to_fractions(s_mul(s_from_fractions(c), f))
                       for c in rows[k]]
    return rows


SHAPES = [(1, 1), (1, 5), (5, 1), (3, 3), (2, 7), (7, 2), (4, 6), (6, 4),
          (5, 5), (8, 3), (3, 8)]


def _cases(field, seed, count):
    rng = random.Random(seed)
    for t in range(count):
        nrows, ncols = SHAPES[t % len(SHAPES)]
        yield _matrix(rng, field, nrows, ncols), ncols


@pytest.mark.parametrize("which,count", [(0, 220), (1, 110), (2, 110)])
def test_rref_matches_sympy(fields, which, count):
    field = fields[which]
    for rows, ncols in _cases(field, 9100 + which, count):
        want, want_piv = field.matrix(rows, ncols).rref()
        got = [list(r) for r in rows]
        pivots = rref(got, ncols)
        assert tuple(pivots) == tuple(want_piv)
        assert field.matrix(got, ncols) == want


def _dense(pivots, prows, nrows, ncols):
    """Pivot rows of eliminate() as the dense rows rref() writes."""
    out = []
    for j, prow in zip(pivots, prows):
        row = [{} for _ in range(ncols)]
        row[j] = {0: Fraction(1)}
        for k, v in prow.items():
            row[k] = s_to_fractions(v)
        out.append(row)
    return out + [[{} for _ in range(ncols)]
                  for _ in range(nrows - len(pivots))]


@pytest.mark.parametrize("which", [0, 1, 2])
def test_sparse_core_matches_the_dense_entry(fields, which):
    field = fields[which]
    for rows, ncols in _cases(field, 9100 + which, 110):
        before = [[dict(c) for c in r] for r in rows]
        want = [list(r) for r in rows]
        want_piv = rref(want, ncols)
        for reduced in (True, False):
            srows = [{j: s_from_fractions(c) for j, c in enumerate(r) if c}
                     for r in rows]
            pivots, prows, _ = eliminate(srows, ncols, reduced)
            assert pivots == want_piv
            assert len(prows) == len(pivots)
            for j, prow in zip(pivots, prows):
                assert all(k > j for k in prow)
                assert all(prow.values())
            if reduced:
                assert all(k not in pivots for p in prows for k in p)
                assert _dense(pivots, prows, len(rows), ncols) == want
            else:
                # the forward rows span the row space: their RREF is rref's
                forward = _dense(pivots, prows, len(rows), ncols)
                assert rref(forward, ncols) == want_piv and forward == want
        assert rows == before


@pytest.mark.parametrize("which", [0, 1, 2])
def test_forward_only_pivots_equal_full_pivots(fields, which):
    field = fields[which]
    for rows, ncols in _cases(field, 9200 + which, 44):
        before = [[dict(c) for c in r] for r in rows]
        ids = [id(r) for r in rows]
        pivots = rref(rows, ncols, reduced=False)
        assert rows == before and [id(r) for r in rows] == ids
        assert pivots == rref([list(r) for r in rows], ncols)


def test_rank_leaves_the_matrix_unchanged(fields):
    rng = random.Random(9300)
    for nrows, ncols in SHAPES:
        m = Matrix(nrows, ncols, _matrix(rng, fields[1], nrows, ncols))
        before = Matrix(nrows, ncols, [[dict(c) for c in r] for r in m._rows])
        r = rank(m)
        assert m == before
        assert r == fields[1].matrix(m._rows, ncols).rank()


@pytest.mark.parametrize("which", [1, 2])
def test_inverse_matches_sympy(fields, which):
    field = fields[which]
    rng = random.Random(9400 + which)
    for size in range(1, len(field.masks) + 1):
        for _ in range(6):
            a = {k: Fraction(rng.choice((-1, 1)) * rng.randrange(1, 30),
                             rng.randrange(1, 10))
                 for k in rng.sample(field.masks, size)}
            want = field.dom.quo(field.dom.one, field.to_sympy(a))
            assert field.to_sympy(
                s_to_fractions(s_inv(s_from_fractions(a)))) == want


def _sympy_value(c):
    """A kernel scalar as a sympy expression in sqrt."""
    return sum((Rational(q.numerator, q.denominator) * sqrt(DIVISORS[k])
                for k, q in s_to_fractions(c).items()), Integer(0))


def _random_form(rng, field, n, p):
    terms = {}
    for idx in combinations(range(1, n + 1), p):
        c = _scalar(rng, field, 0.6)
        if c:
            terms[idx] = Scalar(s_from_fractions(c))
    return Form(n, terms)


def _forms(field, seed, count):
    """(n, a, b, c): a random p-form a, q-form b and p-form c on R^n."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(2, 7)
        p = rng.randrange(0, n + 1)
        q = rng.randrange(0, n - p + 1)
        yield n, _random_form(rng, field, n, p), \
            _random_form(rng, field, n, q), _random_form(rng, field, n, p)


def test_wedge_matches_the_shuffle_sum(fields):
    for n, a, b, _ in _forms(fields[1], 9500, 150):
        p, q = a.degree, b.degree
        if p is None or q is None:
            continue
        got = wedge(a, b)
        for K in combinations(range(1, n + 1), p + q):
            want = Integer(0)
            for I in combinations(K, p):
                J = tuple(k for k in K if k not in I)
                if I in a.terms and J in b.terms:
                    sign = Permutation([K.index(k) for k in I + J]).signature()
                    want += sign * _sympy_value(a.terms[I].c) \
                        * _sympy_value(b.terms[J].c)
            have = got.terms.get(K, Scalar()).c
            assert expand(want - _sympy_value(have)) == 0, (a, b, K)
        assert all(len(K) == p + q for K in got.terms)


def test_wedge_with_the_hodge_star_is_the_inner_product(fields):
    for n, a, _, c in _forms(fields[1], 9600, 150):
        inner = sum((_sympy_value(x.c) * _sympy_value(c.terms[I].c)
                     for I, x in a.terms.items() if I in c.terms),
                    Integer(0))
        volume = tuple(range(1, n + 1))
        got = wedge(a, hodge(c))
        assert set(got.terms) <= {volume}
        have = got.terms.get(volume, Scalar()).c
        assert expand(inner - _sympy_value(have)) == 0, (a, c)
