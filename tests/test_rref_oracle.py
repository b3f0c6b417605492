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
star is held to a ^ *b = <a, b> e^{1...n}.  The ranks mod P behind the
certificate of span_rank and of the dense forward entry are held to the
exact elimination, and each way the certificate can refuse must still
give the exact answer.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from sympy import QQ, Integer, Rational, expand, sqrt
from sympy.combinatorics import Permutation
from sympy.polys.matrices import DomainMatrix

from edsx import _kernel
from edsx._kernel import (DIVISORS, ONE, P, PRIMES, ROOTS_MOD_P, eliminate,
                          pivots_mod_p, rref, s_add, s_inv, s_mul)
from edsx.catalog import get_structure
from edsx.dga import extension
from edsx.exterior import Form, hodge, wedge
from edsx.linalg import span_rank, transpose
from edsx.papercheck import SUITE_SEED, _rand_scalar
from edsx.rep import hom_dim, orbit_matrix
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


# The certificate mod P (see edsx._kernel): pivots_mod_p is checked here
# against the exact elimination, eliminate(..., reduced=False) without
# certify, never against span_rank, which answers from it.

def _exact_pivots(rows, ncols):
    return eliminate([dict(r) for r in rows], ncols, reduced=False)[0]


def test_the_roots_mod_p_are_square_roots():
    assert P % 4 == 3 and pow(3, P - 1, P) == 1
    assert all(r * r % P == d for r, d in zip(ROOTS_MOD_P, DIVISORS))
    assert all(ROOTS_MOD_P[a | b] == ROOTS_MOD_P[a] * ROOTS_MOD_P[b] % P
               for a in range(16) for b in range(16) if not a & b)


@pytest.mark.parametrize("name", CATALOG)
def test_extension_ranks_agree_mod_p(name):
    s = get_structure(name)
    m = extension(s.n, s.generators.values())._rows
    width = hom_dim(s.n)
    want = _exact_pivots(m, width)
    assert pivots_mod_p(m, width) == want
    if name == "so3-9":
        assert (len(want), width) == (200, 324)


def _rank_determinism_cases():
    # the matrices of the paper-check rank-determinism suite
    rng = random.Random(SUITE_SEED + 4)
    for _ in range(1000):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 6)
        yield [{j: x.c for j in range(ncols) if (x := _rand_scalar(rng))}
               for _ in range(nrows)], ncols


def test_rank_determinism_cases_agree_mod_p():
    for rows, ncols in _rank_determinism_cases():
        assert pivots_mod_p(rows, ncols) == _exact_pivots(rows, ncols)


@pytest.fixture
def certified(monkeypatch):
    """The answers of _kernel._certified, in call order (None: refused)."""
    seen = []
    inner = _kernel._certified

    def spy(*args):
        seen.append(inner(*args))
        return seen[-1]

    monkeypatch.setattr(_kernel, "_certified", spy)
    return seen


def _rank_and_pivots(rows, ncols):
    """(span_rank, the dense entry's forward pivots) of sparse rows."""
    return (span_rank(rows, ncols),
            rref(_cells(rows, ncols), ncols, reduced=False))


def test_certified_answers_are_the_exact_ones(certified):
    hits = 0
    for rows, ncols in _rank_determinism_cases():
        want = _exact_pivots(rows, ncols)
        start = len(certified)
        assert _rank_and_pivots(rows, ncols) == (len(want), want)
        hits += any(x is not None for x in certified[start:])
        rows_t = transpose(rows, ncols)
        assert span_rank(rows_t, len(rows)) == len(want)
    # 734 of the 1,000 answers come from the certificate
    assert hits > 700


R2 = scalar_of({0: 1, 1: 1})      # 1 + sqrt2
R3 = scalar_of({0: 2, 2: -1})     # 2 - sqrt3


def test_a_rank_below_the_bound_falls_back(certified):
    a = {0: R2, 1: ONE, 2: R3}
    b = {0: ONE, 1: R3, 2: R2}
    c = {j: s_add(s_mul(x, R3), s_mul(b[j], R2)) for j, x in a.items()}
    assert _rank_and_pivots([a, b, c], 3) == (2, [0, 1])
    assert certified == [None, None]


def test_a_denominator_divisible_by_p_falls_back(certified, monkeypatch):
    guarded = []
    inner = _kernel.pivots_mod_p

    def spy(rows, ncols):
        guarded.append(inner(rows, ncols))
        return guarded[-1]

    monkeypatch.setattr(_kernel, "pivots_mod_p", spy)
    over_p = (P, {0: 1, 1: 1})    # (1 + sqrt2) / P
    rows = [{0: over_p, 1: ONE}, {0: ONE, 1: R3}]
    assert _rank_and_pivots(rows, 2) == (2, [0, 1])
    assert guarded == [None, None] and certified == [None, None]


def test_full_rank_off_the_leading_columns_answers_only_the_rank(certified):
    # mod P the first entry vanishes: the rank mod P is 1, which certifies
    # the rank, but on column 1, while the exact pivot is column 0
    p_r2 = scalar_of({0: P, 1: P})
    rows = [{0: p_r2, 1: R2}]
    assert pivots_mod_p(rows, 2) == [1]
    assert _rank_and_pivots(rows, 2) == (1, [0])
    assert certified == [[1], None]


def test_zero_rows_and_zero_columns():
    assert _rank_and_pivots([], 3) == (0, [])
    assert _rank_and_pivots([{}, {}], 0) == (0, [])
    assert _rank_and_pivots([{}, {}, {}], 2) == (0, [])
    assert pivots_mod_p([{}, {}], 2) == []
    # a zero row and a zero column keep the bound out of reach
    assert _rank_and_pivots([{0: R2, 1: R3}, {}], 2) == (1, [0])
    assert _rank_and_pivots([{1: R2}, {1: R3}], 2) == (1, [1])


def test_single_term_rows_never_reach_the_certificate(certified):
    # graded radical rows (the polar rows of psu3) and rational rows
    s = get_structure("psu3")
    rows = orbit_matrix(s.generators["rho"])
    assert span_rank(rows, s.n ** 2) == 56
    rational = [{j: scalar_of({0: Fraction(i + 1, j + 2)}) for j in range(4)}
                for i in range(3)]
    assert _rank_and_pivots(rational, 4) == (1, [0])
    assert certified == []


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
