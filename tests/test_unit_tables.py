"""The unit tables on bitmasks against the general derivation rule.

dga.extension and rep.orbit_matrix read their rows off the forms' terms
with exterior.unit_images, and equivariant_coords builds each
generator's action on Hom(T, Lambda^2 T) one touched column at a time.
The references take the general path: exterior.derivation_images with
unit by_index tables, and the whole Hom operator of the tensor rule,
transposed, for every generator.  Rows are compared as lists of items,
so the key order, which fixes the pivots downstream, is pinned as well.
"""

import random
from math import comb

import pytest

from edsx._kernel import ONE, s_neg
from edsx.catalog import get_structure
from edsx.dga import extension
from edsx.exterior import Subspace, derivation_images, lex_index, restrict
from edsx.linalg import combine, echelon_span, kernel_basis, transpose
from edsx.rep import (LieRep, _form_operators, _tensor_operators,
                      action_index, equivariant_coords, gl_basis, hom_dim,
                      mat_from, orbit_matrix)

from test_derivation import rand_form

CATALOG = ("su-even:2", "su-even:3", "su-even:4", "su-odd:2", "su-odd:3",
           "su-odd:4", "psu3", "psu3-dual", "so3-9", "g2", "spin7",
           "sp2sp1", "example-712")


def items(rows):
    return [list(row.items()) for row in rows]


def unit_extension_rows(forms, n):
    """The extension matrix through derivation_images: unit
    (i - 1) C(n, 2) + t sends e^i to the t-th unit 2-form."""
    pairs = lex_index(n, 2)[0]
    by_index = [[(i * len(pairs) + t, J, ONE) for t, J in enumerate(pairs)]
                for i in range(n)]
    rows = []
    for g in forms:
        images = derivation_images(g, by_index)
        rows.extend(images.get(K, {}) for K in lex_index(n, g.degree + 1)[0])
    return rows


def orbit_rows(a, skew):
    """The orbit matrix through derivation_images over gl_basis."""
    images = derivation_images(a, action_index(gl_basis(a.n, skew), a.n))
    return [images.get(K, {}) for K in lex_index(a.n, a.degree)[0]]


def hom_operator(x, n):
    """x on Hom(T, Lambda^2 T) as sparse rows, by the tensor rule
    x (x) 1 + 1 (x) x: -D o x on the coframe slot, and the coframe action
    on the unit 2-forms."""
    slot = [{j - 1: s_neg(d) for _, (j,), d in entries}
            for entries in action_index([x], n)]
    return _tensor_operators([slot], _form_operators([x], n, 2), n,
                             comb(n, 2))[1][0]


def operator_kernel(g):
    """The equivariant basis from whole operators: each generator's kernel
    on the current basis, then one echelon_span."""
    dim = hom_dim(g.n)
    basis = [{k: ONE} for k in range(dim)]
    for x in g.basis:
        if not basis:
            return []
        cols = transpose(hom_operator(x, g.n), dim)
        images = [combine(cols, v) for v in basis]
        basis = [combine(basis, c)
                 for c in kernel_basis(transpose(images, dim), len(images))]
    return echelon_span(basis, dim)


@pytest.mark.parametrize("name", CATALOG)
def test_extension_rows_are_the_unit_derivation_images(name):
    s = get_structure(name)
    forms = list(s.generators.values())
    assert items(extension(s.n, forms)._rows) \
        == items(unit_extension_rows(forms, s.n))
    for drop in range(1, s.n + 1):
        w = Subspace.hyperplane(s.n, drop)
        local = [f for f in (restrict(g, w) for g in forms) if not f.is_zero()]
        assert items(extension(w.dim, local)._rows) \
            == items(unit_extension_rows(local, w.dim)), drop


@pytest.mark.parametrize("name", CATALOG)
def test_orbit_rows_are_the_gl_and_so_actions(name):
    for gname, a in get_structure(name).generators.items():
        for skew in (False, True):
            assert items(orbit_matrix(a, skew)) == items(orbit_rows(a, skew)), \
                (gname, skew)


def test_orbit_rows_of_random_forms():
    # the forms of test_orbit_matrix_columns_are_the_actions, then random
    # forms with radical coefficients in every degree
    rng = random.Random(43)
    forms = []
    for name, gen in (("g2", "phi"), ("so3-9", "gamma")):
        a = get_structure(name).generators[gen]
        forms += [a, rand_form(rng, a.n, 2, 6)]
    rng = random.Random(44)
    for _ in range(25):
        n = rng.randrange(3, 8)
        forms.append(rand_form(rng, n, rng.randrange(1, n + 1),
                               rng.randrange(1, 6)))
    for a in forms:
        for skew in (False, True):
            assert items(orbit_matrix(a, skew)) == items(orbit_rows(a, skew))


@pytest.mark.parametrize("name", CATALOG)
def test_equivariant_coords_are_the_operator_kernel(name):
    g = get_structure(name).lie
    fresh = LieRep(name + " fresh", g.n, g.basis)
    assert items(equivariant_coords(fresh)) == items(operator_kernel(g))


def _diagonal_algebras():
    """Matrices with diagonal entries, where the Hom action adds -D o x
    and x . (e^p ^ e^q) on one cell: diag(1, -1, 2, -2) cancels the
    2-form part there on e^1 ^ e^2 and e^3 ^ e^4, and keeps two maps."""
    torus = mat_from([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 2, 0],
                      [0, 0, 0, -2]])
    rng = random.Random(45)
    dense = mat_from([[rng.randint(-2, 2) for _ in range(4)]
                      for _ in range(4)])
    return [LieRep("torus", 4, [torus], skew=False),
            LieRep("torus+E32", 4, [torus, gl_basis(4)[9]], skew=False),
            LieRep("dense", 4, [dense, torus], skew=False)]


@pytest.mark.parametrize("g", _diagonal_algebras(), ids=lambda g: g.name)
def test_equivariant_coords_with_diagonal_entries(g):
    fresh = LieRep(g.name, g.n, g.basis, skew=False)
    assert items(equivariant_coords(fresh)) == items(operator_kernel(g))
