"""The unit tables against references that share no code with them.

dga.extension and rep.orbit_matrix read their rows off the forms' terms
through exterior.derivation_images with unit coefficients, and
equivariant_coords builds each generator's action on Hom(T, Lambda^2 T)
one touched column at a time.  The extension and orbit references expand
each unit derivation by Leibniz (test_derivation.leibniz, which knows only
wedge and Form.monomial, so its signs are its own); the equivariant
reference takes the whole Hom operator of every generator, each column
x . D for a unit map D by Leibniz on Forms (hom_column_reference).

invariants and equivariant_coords intersect only the basis matrices that
rep._generating keeps.  Its references are a bracket closure of the kept
matrices in gl(n) coordinates, and kernels over the whole basis.
"""

import random

import pytest

from edsx._kernel import ONE
from edsx.catalog import get_structure
from edsx.dga import extension
from edsx.exterior import Subspace, coords, lex_index, restrict
from edsx.linalg import (combine, echelon_span, kernel_basis, span_rank,
                         transpose)
from edsx.rep import (LieRep, _generating, _unit_columns, _unit_forms,
                      equivariant_coords, gl_basis, hom_dim, invariants,
                      mat_bracket, mat_from, orbit_matrix)

from test_derivation import (coframe_images, hom_column_reference,
                             leibniz, rand_form, unit_matrix_reference)

CATALOG = ("su-even:2", "su-even:3", "su-even:4", "su-odd:2", "su-odd:3",
           "su-odd:4", "psu3", "psu3-dual", "so3-9", "g2", "spin7",
           "sp2sp1", "example-712")


def items(rows):
    return [list(row.items()) for row in rows]


def orbit_rows(a, skew):
    """The orbit matrix by Leibniz, column u the action of the u-th element
    of gl_basis: E_ij sends e^j to -e^i, and E_ij - E_ji sends e^i to e^j
    as well."""
    n, p = a.n, a.degree
    rows = [{} for _ in lex_index(n, p)[0]]
    for u, x in enumerate(gl_basis(n, skew)):
        for r, c in coords(leibniz(a, coframe_images(x, n), 0), p).items():
            rows[r][u] = c
    return rows


def hom_operator(x, n):
    """x on Hom(T, Lambda^2 T) as sparse rows, column k the Leibniz
    reference hom_column_reference of the unit map k."""
    dim = hom_dim(n)
    return transpose([hom_column_reference(x, n, k) for k in range(dim)],
                     dim)


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


def invariants_reference(g, p):
    """The forms of degree p that every basis matrix kills: one kernel of
    the unit-column operators of the whole basis, stacked."""
    units = _unit_forms(g.n, p)
    dim, rows = len(units), []
    for x in g.basis:
        column = _unit_columns(x, g.n, p, units)
        rows += transpose([column(t) for t in range(dim)], dim)
    return echelon_span(kernel_basis(rows, dim), dim)


def bracket_closure(mats, n):
    """A basis, in gl(n) coordinates, of the span of mats closed under
    mat_bracket: every pair is bracketed, and a bracket outside the span
    joins it, until the pairs run out."""
    queue, found, vecs = list(mats), [], []
    for m in queue:
        v = {i * n + j: c for i, row in enumerate(m) for j, c in row.items()}
        if span_rank(vecs + [v], n * n) > len(vecs):
            queue += [mat_bracket(y, m) for y in found]
            found.append(m)
            vecs.append(v)
    return vecs


@pytest.mark.parametrize("name", CATALOG)
def test_extension_rows_are_the_unit_derivation_images(name):
    s = get_structure(name)
    forms = list(s.generators.values())
    assert extension(s.n, forms)._rows == unit_matrix_reference(forms, s.n)
    for drop in range(1, s.n + 1):
        w = Subspace.hyperplane(s.n, drop)
        local = [f for f in (restrict(g, w) for g in forms) if not f.is_zero()]
        assert extension(w.dim, local)._rows \
            == unit_matrix_reference(local, w.dim), drop


@pytest.mark.parametrize("name", CATALOG)
def test_orbit_rows_are_the_gl_and_so_actions(name):
    for gname, a in get_structure(name).generators.items():
        for skew in (False, True):
            assert orbit_matrix(a, skew) == orbit_rows(a, skew), (gname, skew)


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
            assert orbit_matrix(a, skew) == orbit_rows(a, skew)


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


@pytest.mark.parametrize("name", CATALOG)
def test_kept_matrices_generate_the_algebra(name):
    g = get_structure(name).lie
    kept = _generating(g)
    assert len(bracket_closure([g.basis[s] for s in kept], g.n)) == g.dim


@pytest.mark.parametrize("name", CATALOG)
def test_invariants_are_the_kernel_of_the_whole_basis(name):
    g = get_structure(name).lie
    for p in range(g.n + 1):
        assert [coords(f, p) for f in invariants(g, p)] \
            == invariants_reference(g, p), p


def _sets_kept_whole():
    """A set whose brackets leave its span, a dependent one and the empty
    one: _generating keeps every index of each."""
    torus, _, dense = _diagonal_algebras()
    return [dense,
            LieRep("torus twice", 4, torus.basis * 2, skew=False),
            LieRep("empty", 4, [], skew=False)]


@pytest.mark.parametrize("g", _sets_kept_whole(), ids=lambda g: g.name)
def test_kernels_of_sets_kept_whole(g):
    assert _generating(g) == list(range(g.dim))
    assert items(equivariant_coords(g)) == items(operator_kernel(g))
    for p in range(g.n + 1):
        assert [coords(f, p) for f in invariants(g, p)] \
            == invariants_reference(g, p), p
