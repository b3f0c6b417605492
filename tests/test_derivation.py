"""The one derivation rule against the Leibniz expansion.

exterior.derivation_images applies derivations of the exterior algebra,
each fixed by the images of the coframe, to a form's terms.  The
reference here knows only wedge and Form.monomial: it expands
D(c e^{i_1} ^ ... ^ e^{i_p}) term by term as the sum over t of
(-1)^(t deg D) c e^{i_1} ^ ... ^ D(e^{i_t}) ^ ... ^ e^{i_p}.
"""

import random

import pytest

from edsx.catalog import get_structure
from edsx.dga import extension
from edsx.exterior import (Form, Subspace, coords, derivation_images,
                           lex_index, restrict, wedge)
from edsx.rep import HomMap, act_on_form, gl_basis, hom_dim, orbit_matrix
from edsx.scalar import Scalar

RADICALS = [Scalar.of(1)] + [Scalar.sqrt(d) for d in (2, 3, 5, 7)]


def rand_scalar(rng):
    """A nonzero scalar with up to two radical terms."""
    while True:
        c = sum((Scalar.of(rng.randint(-4, 4)) / rng.randint(1, 3) * r
                 for r in rng.sample(RADICALS, 2)), Scalar())
        if c:
            return c


def rand_form(rng, n, p, terms):
    out = Form(n)
    for _ in range(terms):
        out = out + Form.monomial(n, sorted(rng.sample(range(1, n + 1), p)),
                                  rand_scalar(rng))
    return out


def leibniz(a, images, degree):
    """D(a) for the derivation of the given degree with e^i -> images[i-1]."""
    n = a.n
    total = Form(n)
    for I, c in a.terms.items():
        for t, i in enumerate(I):
            if images[i - 1].is_zero():
                continue
            piece = Form.monomial(n, (), c if t * degree % 2 == 0 else -c)
            for s, j in enumerate(I):
                piece = wedge(piece, images[j - 1] if s == t
                              else Form.monomial(n, (j,)))
            total = total + piece
    return total


def coframe_images(x, n):
    """The images X . e^j = -sum_i X[i][j] e^i of the coframe under the
    matrix x, as rep fixes the action."""
    images = [Form(n)] * n
    for i, row in enumerate(x):
        for j, c in row.items():
            images[j] = images[j] + Form.monomial(n, (i + 1,), -Scalar(c))
    return images


def hom_column_reference(x, n, k):
    """x . D in Hom coordinates for the unit map D = coordinate k, which
    sends e^(b+1) to the l-th unit 2-form u for k = b C(n, 2) + l:
    (x . D)(e^(a+1)) = x . D(e^(a+1)) - D(x . e^(a+1)), that is x . u by
    Leibniz on block b, less the coefficient of e^(b+1) in x . e^(a+1)
    times u on every block a."""
    pairs = lex_index(n, 2)[0]
    b, l = divmod(k, len(pairs))
    unit = Form.monomial(n, pairs[l])
    images = coframe_images(x, n)
    blocks = [leibniz(unit, images, 0) if a == b else Form(n)
              for a in range(n)]
    for a in range(n):
        c = images[a].terms.get((b + 1,))
        if c:
            blocks[a] = blocks[a] - unit.scale(c)
    return HomMap(n, blocks).coords()


def by_index_of(maps):
    """The by_index of derivation_images for derivations u = 0, 1, ...,
    map u given by its coframe images."""
    n = len(maps[0])
    return [[(u, J, d.c) for u, images in enumerate(maps)
             for J, d in images[i].terms.items()] for i in range(n)]


def indices(mask, n):
    """The multi-index of a bitmask, bit i for index i."""
    return tuple(i for i in range(1, n + 1) if mask >> i & 1)


def split(images_by_K, count, n):
    """The forms D_u(a), u < count, of a derivation_images result."""
    out = [Form(n) for _ in range(count)]
    for K, row in images_by_K.items():
        for u, c in row.items():
            out[u] = out[u] + Form.monomial(n, indices(K, n), Scalar(c))
    return out


def assert_stores_no_zero(images_by_K):
    assert all(row for row in images_by_K.values())
    assert all(c for row in images_by_K.values() for c in row.values())


@pytest.mark.parametrize("degree", [0, 1])
def test_several_derivations_match_leibniz(degree):
    rng, other = random.Random(41 + degree), random.Random(51 + degree)
    for _ in range(25):
        n = rng.randrange(3, 7)
        p = rng.randrange(1, n + 1)
        a = rand_form(rng, n, p, rng.randrange(1, 5))
        count = rng.randrange(1, 5)
        maps = [[rand_form(rng, n, degree + 1, rng.randrange(0, 3))
                 if rng.random() < 0.7 else Form(n) for _ in range(n)]
                for _ in range(count)]
        got = derivation_images(a, by_index_of(maps))
        assert_stores_no_zero(got)
        assert split(got, count, n) == [leibniz(a, images, degree)
                                        for images in maps]
        # one table shared by the calls on one by_index, as rep's unit
        # columns share it, changes no result
        by_index, table = by_index_of(maps), {}
        for b in (rand_form(other, n, other.randrange(1, n + 1), 2), a):
            got = derivation_images(b, by_index, table)
            assert split(got, count, n) == [leibniz(b, images, degree)
                                            for images in maps]


def test_exact_cancellation_stores_nothing():
    n = 5
    a = Form.monomial(n, (1, 2)) + Form.monomial(n, (1, 3))
    e = [Form.monomial(n, (i,)) for i in range(1, n + 1)]
    zero = Form(n)
    # D_0 = diag(1, -1, 0, ...) kills e^{12} and keeps e^{13}; D_1 sends
    # e^1 -> e^2, so e^{12} goes to zero and e^{13} to e^{23}
    diag = [e[0], -e[1], zero, zero, zero]
    shift = [e[1], zero, zero, zero, zero]
    got = derivation_images(a, by_index_of([diag, shift]))
    assert_stores_no_zero(got)
    assert split(got, 2, n) == [Form.monomial(n, (1, 3)),
                                Form.monomial(n, (2, 3))]
    assert 0b110 not in got
    # degree one: -e^1 ^ e^{45} + e^1 ^ e^{45} = 0, so nothing at all
    e45 = Form.monomial(n, (4, 5))
    twist = [zero, e45, -e45, zero, zero]
    assert leibniz(a, twist, 1).is_zero()
    assert derivation_images(a, by_index_of([twist])) == {}


@pytest.mark.parametrize("skew", [False, True])
def test_orbit_matrix_columns_are_the_actions(skew):
    rng = random.Random(43)
    for name, gen in (("g2", "phi"), ("so3-9", "gamma")):
        a = get_structure(name).generators[gen]
        for b in (a, rand_form(rng, a.n, 2, 6)):
            p = b.degree
            rows = orbit_matrix(b, skew)
            assert len(rows) == len(lex_index(b.n, p)[0])
            for u, x in enumerate(gl_basis(b.n, skew)):
                column = {t: row[u] for t, row in enumerate(rows) if u in row}
                action = leibniz(b, coframe_images(x, b.n), 0)
                assert column == coords(action, p)
                assert act_on_form(x, b) == action


def unit_matrix_reference(forms, n):
    """Rows of the unit extension matrix, column t from Leibniz on the
    unit with e^i -> e^J for t = (i - 1) C(n, 2) + lex position of J."""
    pairs = lex_index(n, 2)[0]
    rows = [{} for g in forms for _ in lex_index(n, g.degree + 1)[0]]
    for t in range(hom_dim(n)):
        i, k = divmod(t, len(pairs))
        images = [Form(n)] * n
        images[i] = Form.monomial(n, pairs[k])
        at = 0
        for g in forms:
            for r, c in coords(leibniz(g, images, 1), g.degree + 1,
                               at).items():
                rows[r][t] = c
            at += len(lex_index(n, g.degree + 1)[0])
    return rows


@pytest.mark.parametrize("name,drop", [("so3-9", None), ("psu3", 8)])
def test_unit_extension_matrix_matches_leibniz(name, drop):
    s = get_structure(name)
    forms = list(s.generators.values())
    n = s.n
    if drop is not None:
        w = Subspace.hyperplane(n, drop)
        forms = [f for f in (restrict(g, w) for g in forms) if not f.is_zero()]
        n = w.dim
    assert extension(n, forms)._rows == unit_matrix_reference(forms, n)
