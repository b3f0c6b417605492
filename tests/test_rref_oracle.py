"""The field kernel and the exterior products against sympy.

sympy's DomainMatrix.rref over QQ, and over algebraic fields spanned by
three of the four square roots, is an independent implementation of the
same canonical form: the pivots and every entry of eliminate()'s RREF
must agree with it, and eliminate()'s forward rows must reduce to that
RREF.  These RREF tests run twice, the second time with eliminate()'s
switch to its integer loop forced, so the rational cases meet sympy
there too.  The dense entry rref(), which only the benchmark reaches,
must give what eliminate() gives.  sympy's division in those fields is
an independent inverse.  Wedge coefficients are recomputed as shuffle
sums with sympy's permutation signs and sqrt arithmetic, and the Hodge
star is held to a ^ *b = <a, b> e^{1...n}.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from sympy import QQ, Integer, Rational, expand, sqrt
from sympy.combinatorics import Permutation
from sympy.polys.matrices import DomainMatrix

from edsx import _kernel
from edsx._kernel import (DIVISORS, ONE, PRIMES, eliminate, rref, s_inv,
                          s_mul)
from edsx.catalog import get_structure
from edsx.dga import extension
from edsx.exterior import Form, hodge, wedge
from edsx.linalg import span_rank
from edsx.papercheck import SUITE_SEED, _rand_scalar
from edsx.rep import hom_dim
from edsx.scalar import Scalar

from test_kernel_scalars import cell_of, scalar_of

CATALOG = ("su-even:2", "su-even:3", "su-even:4", "su-odd:2", "su-odd:3",
           "su-odd:4", "psu3", "psu3-dual", "so3-9", "g2", "spin7",
           "sp2sp1", "example-712")


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
        """A kernel scalar as an element of the field."""
        acc = self.dom.zero
        if c:
            den, nums = c
            for mask, x in nums.items():
                acc += self.dom.convert(QQ(x, den)) * self.unit[mask]
        return acc

    def matrix(self, rows, ncols):
        """Sparse rows as a DomainMatrix."""
        data = [[self.to_sympy(row.get(j)) for j in range(ncols)]
                for row in rows]
        return DomainMatrix(data, (len(rows), ncols), self.dom)


@pytest.fixture(scope="module")
def fields():
    return [Field(()), Field((2, 3, 5)), Field((2, 5, 7))]


def _scalar(rng, field, density):
    if rng.random() > density:
        return None
    out = {}
    for _ in range(rng.randrange(1, 3)):
        q = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        if q:
            out[rng.choice(field.masks)] = q
    return scalar_of(out)


def _matrix(rng, field, nrows, ncols):
    """Random sparse rows, with a zero, a repeated or a scaled row."""
    density = rng.choice((0.25, 0.5, 1.0))
    rows = [{j: c for j in range(ncols)
             if (c := _scalar(rng, field, density))}
            for _ in range(nrows)]
    if nrows > 1:
        shape = rng.randrange(4)
        i, k = rng.sample(range(nrows), 2)
        if shape == 0:
            rows[i] = {}
        elif shape == 1:
            rows[i] = dict(rows[k])
        elif shape == 2:
            f = scalar_of({rng.choice(field.masks):
                           Fraction(rng.randrange(1, 4), 2)})
            rows[i] = {j: s_mul(c, f) for j, c in rows[k].items()}
    return rows


SHAPES = [(1, 1), (1, 5), (5, 1), (3, 3), (2, 7), (7, 2), (4, 6), (6, 4),
          (5, 5), (8, 3), (3, 8)]


def _over_switch(params):
    """Each parameter tuple twice: with eliminate()'s SWITCH at its
    default (the id of the tuple alone) and at a value that moves every
    radically graded matrix, the rational ones among them, to the integer
    loop at its first pivot column (the id ending in -switched)."""
    out = []
    for args in params:
        name = "-".join(map(str, args))
        out.append(pytest.param(*args, _kernel.SWITCH, id=name))
        out.append(pytest.param(*args, -10 ** 9, id=name + "-switched"))
    return out


def _cases(field, seed, count):
    rng = random.Random(seed)
    for t in range(count):
        nrows, ncols = SHAPES[t % len(SHAPES)]
        yield _matrix(rng, field, nrows, ncols), ncols


def _with_leads(pivots, prows, nrows):
    """Pivot rows of eliminate() with their leading 1, then zero rows."""
    return [{j: ONE, **prow} for j, prow in zip(pivots, prows)] + [
        {} for _ in range(nrows - len(pivots))]


def _snapshot(rows):
    return [(id(r), [(k, id(v), v[0], tuple(v[1].items()))
                     for k, v in r.items()]) for r in rows]


@pytest.mark.parametrize("which,count,switch", _over_switch(
    [(0, 220), (1, 110), (2, 110)]))
def test_rref_matches_sympy(monkeypatch, fields, which, count, switch):
    monkeypatch.setattr(_kernel, "SWITCH", switch)
    field = fields[which]
    for rows, ncols in _cases(field, 9100 + which, count):
        want, want_piv = field.matrix(rows, ncols).rref()
        before = _snapshot(rows)
        for reduced in (True, False):
            pivots, prows = eliminate([dict(r) for r in rows], ncols,
                                      reduced)
            assert tuple(pivots) == tuple(want_piv)
            assert len(prows) == len(pivots)
            for j, prow in zip(pivots, prows):
                assert all(k > j for k in prow)
                assert all(prow.values())
            if reduced:
                assert all(k not in pivots for p in prows for k in p)
            else:
                # the forward rows span the row space: they reduce to
                # the RREF
                forward = _with_leads(pivots, prows, len(rows))
                pivots, prows = eliminate(forward, ncols)
                assert tuple(pivots) == tuple(want_piv)
            got = _with_leads(pivots, prows, len(rows))
            assert field.matrix(got, ncols) == want
        # eliminate() consumes the dicts it is given, never their scalars
        assert _snapshot(rows) == before


@pytest.mark.parametrize("which,switch", _over_switch([(0,), (1,), (2,)]))
def test_forward_only_pivots_equal_full_pivots(monkeypatch, fields, which,
                                               switch):
    monkeypatch.setattr(_kernel, "SWITCH", switch)
    field = fields[which]
    for rows, ncols in _cases(field, 9200 + which, 44):
        before = _snapshot(rows)
        pivots, _ = eliminate([dict(r) for r in rows], ncols, reduced=False)
        assert _snapshot(rows) == before
        assert pivots == eliminate([dict(r) for r in rows], ncols)[0]
        assert span_rank(rows, ncols) == len(pivots)


def test_rank_leaves_the_matrix_unchanged(fields):
    rng = random.Random(9300)
    for nrows, ncols in SHAPES:
        rows = _matrix(rng, fields[1], nrows, ncols)
        before = _snapshot(rows)
        r = span_rank(rows, ncols)
        assert _snapshot(rows) == before
        assert r == fields[1].matrix(rows, ncols).rank()


@pytest.mark.parametrize("which", [1, 2])
def test_inverse_matches_sympy(fields, which):
    field = fields[which]
    rng = random.Random(9400 + which)
    for size in range(1, len(field.masks) + 1):
        for _ in range(6):
            a = {k: Fraction(rng.choice((-1, 1)) * rng.randrange(1, 30),
                             rng.randrange(1, 10))
                 for k in rng.sample(field.masks, size)}
            want = field.dom.quo(field.dom.one, field.to_sympy(scalar_of(a)))
            assert field.to_sympy(s_inv(scalar_of(a))) == want


def _sympy_value(c):
    """A kernel scalar as a sympy expression in sqrt."""
    if not c:
        return Integer(0)
    den, nums = c
    return sum((Rational(x, den) * sqrt(DIVISORS[k])
                for k, x in nums.items()), Integer(0))


def _random_form(rng, field, n, p):
    terms = {}
    for idx in combinations(range(1, n + 1), p):
        c = _scalar(rng, field, 0.6)
        if c:
            terms[idx] = Scalar(c)
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


# A prime p = 3 mod 4 below 2**61 under which 2, 3, 5 and 7 are squares:
# sqrt(q) -> q^((p+1)/4) is then a ring map from the field's elements with
# denominators prime to p onto Z/p, so a rank mod p is at most the exact
# rank, and equal to it unless p divides some minor.
P = 2 ** 61 - 3153
ROOTS = [pow(q, (P + 1) // 4, P) for q in PRIMES]


def _mod_p(c):
    den, nums = c
    acc = 0
    for mask, x in nums.items():
        for k, r in enumerate(ROOTS):
            if mask >> k & 1:
                x = x * r % P
        acc += x
    return acc * pow(den, -1, P) % P


def _rank_mod_p(rows, ncols):
    """Forward rank of sparse kernel-scalar rows, reduced mod P."""
    rows = [{j: x for j, c in row.items() if (x := _mod_p(c))}
            for row in rows]
    rank = 0
    for j in range(ncols):
        held = [i for i, row in enumerate(rows) if j in row]
        if not held:
            continue
        prow = rows.pop(held[0])
        inv = pow(prow[j], -1, P)
        for row in (rows[i - 1] for i in held[1:]):
            f = row[j] * inv % P
            for k, v in prow.items():
                x = (row.get(k, 0) - f * v) % P
                if x:
                    row[k] = x
                else:
                    row.pop(k, None)
        rank += 1
    return rank


def test_the_roots_mod_p_are_square_roots():
    assert P % 4 == 3 and pow(3, P - 1, P) == 1
    assert all(r * r % P == q for q, r in zip(PRIMES, ROOTS))


@pytest.mark.parametrize("name", CATALOG)
def test_extension_ranks_agree_mod_p(name):
    s = get_structure(name)
    m = extension(s.n, s.generators.values())._rows
    width = hom_dim(s.n)
    want = span_rank(m, width)
    assert _rank_mod_p(m, width) == want
    if name == "so3-9":
        assert (want, width) == (200, 324)


def test_rank_determinism_cases_agree_mod_p():
    # the matrices of the paper-check rank-determinism suite
    rng = random.Random(SUITE_SEED + 4)
    for _ in range(1000):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = [{j: x.c for j in range(ncols) if (x := _rand_scalar(rng))}
                for _ in range(nrows)]
        assert _rank_mod_p(rows, ncols) == span_rank(rows, ncols)


# The dense entry, which only the benchmark reaches, through linalg.Matrix
# and linalg.rank: rows of {mask: Fraction} cells in, the same RREF out.

def _cells(rows, ncols):
    return [[cell_of(row.get(j)) for j in range(ncols)]
            for row in rows]


@pytest.mark.parametrize("which,switch", _over_switch([(0,), (1,), (2,)]))
def test_sparse_core_matches_the_dense_entry(monkeypatch, fields, which,
                                             switch):
    monkeypatch.setattr(_kernel, "SWITCH", switch)
    field = fields[which]
    for rows, ncols in _cases(field, 9100 + which, 110):
        cells = _cells(rows, ncols)
        before = [[dict(c) for c in r] for r in cells]
        ids = [id(r) for r in cells]
        pivots, prows = eliminate([dict(r) for r in rows], ncols)
        assert rref(cells, ncols, reduced=False) == pivots
        assert cells == before and [id(r) for r in cells] == ids
        got = [list(r) for r in cells]
        assert rref(got, ncols) == pivots
        assert got == _cells(_with_leads(pivots, prows, len(rows)), ncols)
        assert cells == before
