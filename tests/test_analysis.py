"""The per-structure analysis against the reference paths it replaces."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from edsx import catalog, linalg
from edsx._kernel import eliminate
from edsx.cartan import flag_test
from edsx.catalog import get_structure, parse_structure_name
from edsx.dga import (_derivation_matrix, _extension_system, _generator_pairs,
                      _unit_images, Analysis, analysis, check_operator,
                      lie_tensor_rows, z_spaces)
from edsx.linalg import (Elimination, kernel_basis, solve_affine,
                         span_rank)
from edsx.rep import LieRep, equivariant_maps, gl_basis, hom_dim
from edsx.scalar import Scalar

CATALOG = ("su-even:2", "su-even:3", "su-even:4", "su-odd:2", "su-odd:3",
           "su-odd:4", "psu3", "psu3-dual", "so3-9", "g2", "spin7",
           "sp2sp1", "example-712")

UNITARY = ("su-even:2", "su-even:3", "su-even:4",
           "su-odd:2", "su-odd:3", "su-odd:4")

# one rational and one radical assignment of every parameter
PARAMS = ({"lambda": "3/2", "mu": "-2"}, {"lambda": "1 + r2", "mu": "-r3"})

_BUILDERS = {"su-even": catalog._build_su_even,
             "su-odd": catalog._build_su_odd}


def _fresh(name):
    """A newly built spec with a new LieRep: every cache starts empty."""
    base, n = parse_structure_name(name)
    return _BUILDERS[base](n)


def _assignment(spec, params):
    return {k: Scalar.parse(params[k]) for k in spec.params}


def _queries():
    for name in UNITARY:
        s = get_structure(name)
        for op, spec in s.operators.items():
            for params in (PARAMS if spec.params else (None,)):
                yield name, op, (_assignment(spec, params)
                                 if params else None)


def _reference_system(s, op, params):
    fvals = s.operators[op].instantiate(params)
    return _extension_system(s.n, _generator_pairs(s, fvals))


@pytest.mark.parametrize("name", CATALOG)
def test_codim_z0_is_the_extension_rank(name):
    s = get_structure(name)
    m, rhs = _reference_system(s, "zero", None)
    n = s.n
    reference = solve_affine(m, hom_dim(n), rhs)
    z_dim = len(reference.basis) + n * (n * (n + 1) // 2)
    assert z_spaces(s, "zero").z_dim == z_dim
    assert flag_test(s).codim_z0 == n ** 3 - z_dim


@pytest.mark.parametrize("name", CATALOG)
def test_lie_ranks_are_the_stacked_ranks(name):
    s = get_structure(name)
    g_rows = lie_tensor_rows(s.lie, s.n)
    width = hom_dim(s.n)
    kernel = kernel_basis(_derivation_matrix(list(s.generators.values()),
                                             _unit_images(s.n)), width)
    want = (span_rank(g_rows, width), span_rank(g_rows + kernel, width))
    assert analysis(s).lie_ranks() == want
    if name == "psu3":
        # ker m holds g (x) T (the generators are invariant) and more
        assert want == (64, 154) and len(kernel) == 154


def test_lie_ranks_reduce_rows_outside_the_kernel():
    # so(5) does not fix the su-odd:2 generators, so rows of g (x) T
    # leave ker m and their reductions modulo ker m are not all zero
    base = get_structure("su-odd:2")
    n = base.n
    s = SimpleNamespace(n=n, generators=base.generators,
                        lie=LieRep("so5", n, gl_basis(n, skew=True)))
    g_rows = lie_tensor_rows(s.lie, n)
    width = hom_dim(n)
    kernel = kernel_basis(_derivation_matrix(list(s.generators.values()),
                                             _unit_images(n)), width)
    want = (span_rank(g_rows, width), span_rank(g_rows + kernel, width))
    assert Analysis(s).lie_ranks() == want
    assert want[1] > len(kernel)


def test_cached_and_fresh_specs_agree():
    for name, op, params in _queries():
        s = get_structure(name)
        for query in (check_operator, z_spaces):
            warm = [query(s, op, params).to_json() for _ in range(2)]
            cold = query(_fresh(name), op, params).to_json()
            assert warm[0] == warm[1] == cold, (name, op, query)


def test_factored_solve_equals_solve_affine():
    for name, op, params in _queries():
        s = get_structure(name)
        m, rhs = _reference_system(s, op, params)
        reference = solve_affine(m, hom_dim(s.n), rhs)
        factored = analysis(s).extension().solve(rhs)
        assert not reference.is_empty
        assert factored.particular == reference.particular
        assert factored.basis == reference.basis
        assert z_spaces(s, op, params).z_prime.particular \
            == reference.particular
        basis, elim = analysis(s).equivariant()
        if basis:
            em = _derivation_matrix(list(s.generators.values()),
                                    [h.images for h in basis])
            assert elim.particular(rhs) \
                == solve_affine(em, len(basis), rhs).particular


def _times(m, x):
    """m x as a sparse vector, for sparse rows m and a sparse vector x."""
    out = {}
    for i, row in enumerate(m):
        acc = sum((Scalar(c) * Scalar(x[k]) for k, c in row.items()
                   if k in x), Scalar())
        if acc:
            out[i] = acc.c
    return out


def _radical_vector(width):
    r2, r5 = Scalar.sqrt(2), Scalar.sqrt(5)
    x = {}
    for k in range(width):
        v = Scalar.of(k % 3 - 1) + r2 * (k % 4) - r5 * (k % 5 == 2)
        if v:
            x[k] = v.c
    return x


def _assert_solves_agree(elim, m, width, rhs):
    reference = solve_affine(m, width, rhs)
    factored = elim.solve(rhs)
    assert factored.particular == reference.particular
    assert factored.basis == reference.basis
    return reference


def test_factored_solve_of_an_inconsistent_rhs_is_empty():
    s = get_structure("su-odd:2")
    m, rhs = _reference_system(s, "zero", None)
    width = hom_dim(s.n)
    elim = Elimination(m, width)
    # the rank eliminates m; the solves below replay its row operations
    assert elim.rank == span_rank(m, width)
    one = Scalar.of(1).c
    for i in range(len(m)):
        unit = {i: one}
        if solve_affine(m, width, unit).is_empty:
            break
    else:
        pytest.fail("the extension matrix has full row rank")
    assert elim.particular(unit) is None
    assert elim.solve(unit).is_empty
    assert elim.solve(unit).basis == []
    # m x for x = (k mod 3)_k
    consistent = _times(m, {k: Scalar.of(k % 3).c
                            for k in range(width) if k % 3})
    assert consistent
    assert elim.particular(consistent) \
        == solve_affine(m, width, consistent).particular


@pytest.mark.parametrize("order", [
    ("rank", "kernel", "consistent", "inconsistent", "solve"),
    ("solve", "inconsistent", "consistent", "kernel", "rank")])
def test_an_elimination_eliminates_its_matrix_once(monkeypatch, order):
    s = get_structure("su-odd:2")
    m, _ = _reference_system(s, "zero", None)
    width = hom_dim(s.n)
    unit = {len(m) - 1: Scalar.of(1).c}
    consistent = _times(m, {k: Scalar.of(k % 3).c
                            for k in range(width) if k % 3})
    assert solve_affine(m, width, unit).is_empty
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(linalg, "eliminate", counted)
    elim = Elimination(m, width)
    queries = {"rank": lambda: elim.rank,
               "kernel": elim.kernel_vectors,
               "consistent": lambda: elim.particular(consistent),
               "inconsistent": lambda: elim.particular(unit),
               "solve": lambda: elim.solve(consistent)}
    for name in order:
        queries[name]()
    assert calls == [width]


@pytest.mark.parametrize("name", ["psu3", "psu3-dual", "so3-9"])
def test_factored_solve_of_a_radical_rhs(name):
    s = get_structure(name)
    m, _ = _reference_system(s, "zero", None)
    width = hom_dim(s.n)
    elim = Elimination(m, width)
    rhs = _times(m, _radical_vector(width))
    assert any(len(c[1]) > 1 or 0 not in c[1] for c in rhs.values())
    assert not _assert_solves_agree(elim, m, width, rhs).is_empty
    if name == "so3-9":
        # gamma-dual changes only the right-hand side, and has no solution
        m2, rhs = _reference_system(s, "gamma-dual", {"lambda": Scalar.of(1)})
        assert m2 == m
        assert _assert_solves_agree(elim, m, width, rhs).is_empty
        assert elim.particular(rhs) is None


def test_factored_solve_of_random_radical_systems():
    rng = random.Random(4411)
    radicals = [Scalar.of(1), Scalar.sqrt(2), Scalar.sqrt(3),
                Scalar.of(1) + Scalar.sqrt(5), Scalar.sqrt(14)]
    for _ in range(40):
        nrows, width = rng.randint(3, 9), rng.randint(2, 9)
        m = []
        for _ in range(nrows):
            row = {}
            for k in range(width):
                if rng.random() < 0.4:
                    v = rng.choice(radicals) * Scalar.of(
                        Fraction(rng.choice([-3, -1, 1, 2, 5]),
                                 rng.choice([1, 2, 7])))
                    row[k] = v.c
            m.append(row)
        m[rng.randrange(nrows)] = {}
        m.append(dict(m[rng.randrange(nrows)]))
        elim = Elimination(m, width)
        x = {k: rng.choice(radicals).c
             for k in range(width) if rng.random() < 0.6}
        for rhs in (_times(m, x),
                    {i: rng.choice(radicals).c for i in range(len(m))
                     if rng.random() < 0.5}, {}):
            _assert_solves_agree(elim, m, width, rhs)


def test_equivariant_maps_returns_a_fresh_list():
    lie = get_structure("su-odd:2").lie
    first = equivariant_maps(lie)
    expected = list(first)
    first.clear()
    assert equivariant_maps(lie) == expected
    again = equivariant_maps(lie)
    again.append(again[0])
    assert equivariant_maps(lie) == expected


def test_analysis_is_built_by_the_first_query():
    s = _fresh("su-odd:2")
    assert s._analysis is None
    z_spaces(s, "zero")
    a = s._analysis
    assert a is not None
    check_operator(s, "A", {"lambda": 1, "mu": 0})
    assert s._analysis is a
    assert s.lie._equivariant is not None
