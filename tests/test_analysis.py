"""The per-structure analysis against the reference paths it replaces."""

import hashlib
import json
import random
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import pytest

from edsx import _kernel, catalog, linalg
from edsx._kernel import PRIMES, eliminate, s_neg
from edsx.cartan import flag_test
from edsx.catalog import (get_structure, parse_structure_name,
                          structure_to_json)
from edsx.dga import (Analysis, analysis, check_operator, extension,
                      extension_rhs, lie_tensor_rows, z_spaces)
from edsx.exterior import (Form, Subspace, coords, derivation_images,
                           lex_index, lex_masks)
from edsx.linalg import (Elimination, combine, kernel_basis, solve_affine,
                         span_rank, transpose)
from edsx.papercheck import _su3_brackets
from edsx.rep import (LieRep, cartan_three_form, casimir_decompose,
                      equivariant_coords, equivariant_maps, gl_basis,
                      hom_dim, mat_bracket)
from edsx.restriction import restrict_structure
from edsx.scalar import Scalar

from test_derivation import unit_matrix_reference

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
    """The extension matrix and rhs, built from their definition: a block
    of rows d_D(g) = f(g) per generator, the rhs zero where f(g) is."""
    fvals = s.operators[op].instantiate(params)
    rhs, at = {}, 0
    for gname, g in s.generators.items():
        target = fvals.get(gname, Form.zero(s.n))
        rhs.update(coords(target, g.degree + 1, at))
        at += comb(s.n, g.degree + 1)
    m = unit_matrix_reference(list(s.generators.values()), s.n)
    assert extension_rhs(s.generators, fvals) == rhs
    assert extension(s.n, s.generators.values()).rank \
        == span_rank(m, hom_dim(s.n))
    return m, rhs


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
    kernel = kernel_basis(
        unit_matrix_reference(list(s.generators.values()), s.n), width)
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
    kernel = kernel_basis(
        unit_matrix_reference(list(s.generators.values()), n), width)
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


def _equivariant_reference(n, forms, maps):
    """Sparse rows of the matrix whose columns are d_D(g) stacked over the
    forms, one column per map D of maps in sparse Hom coordinates, by a
    derivation_images pass over the maps themselves."""
    pairs = lex_index(n, 2)[0]
    by_index = [[] for _ in range(n)]
    for u, vec in enumerate(maps):
        for k, c in vec.items():
            i, t = divmod(k, len(pairs))
            by_index[i].append((u, pairs[t], c))
    rows = []
    for g in forms:
        images = derivation_images(g, by_index)
        rows += [images.get(m, {}) for m in lex_masks(n, g.degree + 1)]
    return rows


def test_factored_solve_equals_solve_affine():
    for name, op, params in _queries():
        s = get_structure(name)
        m, rhs = _reference_system(s, op, params)
        width = hom_dim(s.n)
        reference = solve_affine(m, width, rhs)
        ext = analysis(s).extension()
        assert not reference.is_empty
        assert ext.particular(rhs) == reference.particular
        assert ext.rank == width - len(reference.basis)
        assert z_spaces(s, op, params).z_prime_dim == len(reference.basis)
        basis, elim = analysis(s).equivariant()
        em = _equivariant_reference(s.n, s.generators.values(), basis)
        assert elim.particular(rhs) \
            == solve_affine(em, len(basis), rhs).particular


@pytest.mark.parametrize("name", CATALOG)
def test_equivariant_columns_are_the_extension_times_the_basis(name):
    # d_D(g) is linear in D: the columns of the equivariant maps, formed
    # from the extension rows, are their own derivation images
    s = get_structure(name)
    basis, elim = Analysis(s).equivariant()
    assert elim.ncols == len(basis)
    assert elim._rows == _equivariant_reference(
        s.n, s.generators.values(), basis)


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
    got = elim.particular(rhs)
    assert got == reference.particular
    if got is not None:
        assert list(got) == list(reference.particular)
        assert elim.rank == width - len(reference.basis)
    return reference


def test_factored_solve_of_an_inconsistent_rhs_is_empty():
    s = get_structure("su-odd:2")
    m, rhs = _reference_system(s, "zero", None)
    width = hom_dim(s.n)
    elim = Elimination([dict(r) for r in m], width)
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
    # m x for x = (k mod 3)_k
    consistent = _times(m, {k: Scalar.of(k % 3).c
                            for k in range(width) if k % 3})
    assert consistent
    assert elim.particular(consistent) \
        == solve_affine(m, width, consistent).particular


# a rank asked first is one rank-only elimination, and the first solve
# then factors the matrix once; a rank asked after that reads the
# factorization and eliminates nothing
RANK_ONLY, FACTOR = "rank-only", "factor"


@pytest.mark.parametrize("order", [
    ("rank", "consistent", "inconsistent", "rank"),
    ("inconsistent", "consistent", "rank")])
def test_an_elimination_eliminates_its_matrix_once(monkeypatch, order):
    s = get_structure("su-odd:2")
    m, _ = _reference_system(s, "zero", None)
    width = hom_dim(s.n)
    unit = {len(m) - 1: Scalar.of(1).c}
    consistent = _times(m, {k: Scalar.of(k % 3).c
                            for k in range(width) if k % 3})
    assert solve_affine(m, width, unit).is_empty
    calls = []

    def counted(rows, ncols, reduced=True, ops=None, certify=None):
        assert ncols == width and not reduced
        calls.append(FACTOR if ops is not None else RANK_ONLY)
        assert (ops is None) == (certify == "rank")
        return eliminate(rows, ncols, reduced, ops, certify)

    monkeypatch.setattr(linalg, "eliminate", counted)
    elim = Elimination([dict(r) for r in m], width)
    queries = {"rank": lambda: elim.rank,
               "consistent": lambda: elim.particular(consistent),
               "inconsistent": lambda: elim.particular(unit)}
    for name in order:
        queries[name]()
    assert calls == ([RANK_ONLY, FACTOR] if order[0] == "rank"
                     else [FACTOR])


@pytest.mark.parametrize("name", ["psu3", "psu3-dual", "so3-9"])
def test_factored_solve_of_a_radical_rhs(name):
    s = get_structure(name)
    m, _ = _reference_system(s, "zero", None)
    width = hom_dim(s.n)
    elim = Elimination([dict(r) for r in m], width)
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
        elim = Elimination([dict(r) for r in m], width)
        x = {k: rng.choice(radicals).c
             for k in range(width) if rng.random() < 0.6}
        for rhs in (_times(m, x),
                    {i: rng.choice(radicals).c for i in range(len(m))
                     if rng.random() < 0.5}, {}):
            _assert_solves_agree(elim, m, width, rhs)


def _random_system(rng, t, entry, factor):
    """Sparse rows m and their width: wide, tall, or (t % 3 == 2)
    rank-deficient, with one row minus factor(i, j) times another
    appended and a zero column; entry (i, k) is entry(i, k) times a
    rational."""
    nrows, width = [(rng.randint(2, 5), rng.randint(6, 12)),
                    (rng.randint(6, 12), rng.randint(2, 5)),
                    (rng.randint(4, 9), rng.randint(4, 9))][t % 3]
    m = []
    for i in range(nrows):
        row = {}
        for k in range(width):
            if rng.random() < 0.35:
                v = entry(i, k) * Scalar.of(
                    Fraction(rng.choice([-4, -1, 1, 3]),
                             rng.choice([1, 3, 5])))
                row[k] = v.c
        m.append(row)
    if t % 3 == 2:
        i, j = rng.sample(range(nrows), 2)
        c = factor(i, j).c
        m.append({k: v for k, v in (
            (k, (Scalar(m[i].get(k)) - Scalar(c) * Scalar(m[j].get(k))).c)
            for k in set(m[i]) | set(m[j])) if v})
        dead = rng.randrange(width)
        m = [{k: v for k, v in row.items() if k != dead} for row in m]
    return m, width


def _right_hand_sides(rng, m, width, radicals):
    """m x for a random x, zero, a random vector, and the unit vector on
    every row that never becomes a pivot row, which no combination of
    m's columns can reach."""
    one = Scalar.of(1).c
    ops = []
    eliminate([dict(r) for r in m], width, reduced=False, ops=ops)
    pivot_rows = {p for p, _, _ in ops}
    off_pivot = {i: one for i in range(len(m)) if i not in pivot_rows}
    x = {k: rng.choice(radicals).c
         for k in range(width) if rng.random() < 0.6}
    return (_times(m, x), {},
            {i: rng.choice(radicals).c for i in range(len(m))
             if rng.random() < 0.5}, off_pivot)


def test_factored_particular_is_the_back_solve_of_random_systems(
        monkeypatch):
    # wide, tall and rank-deficient radical systems; the rhs is m x, a
    # random vector, zero, or held only by rows that never become pivot
    # rows, which no combination of m's columns can reach
    rng = random.Random(4412)
    radicals = [Scalar.of(1), Scalar.sqrt(2), Scalar.sqrt(5),
                Scalar.sqrt(7), Scalar.sqrt(2) - Scalar.sqrt(7),
                Scalar.of(2) + Scalar.sqrt(5)]
    empty = unreachable = 0
    for t in range(60):
        m, width = _random_system(rng, t, lambda i, k: rng.choice(radicals),
                                  lambda i, j: rng.choice(radicals))
        rhs_list = _right_hand_sides(rng, m, width, radicals)
        elim = Elimination([dict(r) for r in m], width)
        for rhs in rhs_list:
            want = solve_affine(m, width, rhs).particular
            got = elim.particular(rhs)
            if want is None:
                assert got is None
                empty += 1
            else:
                assert list(got.items()) == list(want.items())
            if rhs is rhs_list[-1] and rhs:
                assert got is None
                unreachable += 1
        assert elim.particular(rhs_list[0]) is not None
    assert empty > unreachable > 10

    # radical-graded systems, entry (i, k) a rational times
    # sqrt(D[r_i ^ c_k]), factored with the switch to the integer loop
    # forced and checked against solve_affine with the switch off
    switches = []
    graded = _kernel._forward_graded

    def counted(*args):
        switches.append(args[2])
        return graded(*args)

    monkeypatch.setattr(_kernel, "_forward_graded", counted)
    rng = random.Random(4413)
    units = [Scalar.of(1) for _ in range(16)]
    for mask in range(1, 16):
        for bit, p in enumerate(PRIMES):
            if mask >> bit & 1:
                units[mask] = units[mask] * Scalar.sqrt(p)
    empty = 0
    for t in range(60):
        rmask = [rng.randrange(16) for _ in range(12)]
        cmask = [rng.randrange(16) for _ in range(12)]
        m, width = _random_system(
            rng, t, lambda i, k: units[rmask[i] ^ cmask[k]],
            lambda i, j: units[rmask[i] ^ rmask[j]] * Scalar.of(
                Fraction(rng.randrange(1, 9), rng.randrange(1, 9))))
        monkeypatch.setattr(_kernel, "SWITCH", 10 ** 9)
        rhs_list = _right_hand_sides(rng, m, width, units)
        g = [{k: units[rng.randrange(16)].c for k in range(width)
              if rng.random() < 0.3} for _ in range(3)]
        monkeypatch.setattr(_kernel, "SWITCH", -10 ** 9)
        before = len(switches)
        elim = Elimination([dict(r) for r in m], width)
        # a nonzero right-hand side factors the matrix
        elim.particular({0: Scalar.of(1).c})
        assert len(switches) > before
        with_kernel = elim.rank_with_kernel(g)
        kernel = kernel_basis(m, width)
        monkeypatch.setattr(_kernel, "SWITCH", 10 ** 9)
        for rhs in rhs_list:
            reference = solve_affine(m, width, rhs)
            got = elim.particular(rhs)
            if reference.is_empty:
                assert got is None
                empty += 1
            else:
                assert list(got.items()) == list(reference.particular.items())
        basis = solve_affine(m, width, {}).basis
        assert elim.rank == width - len(basis)
        assert [list(v.items()) for v in kernel] \
            == [list(v.items()) for v in basis]
        assert with_kernel == span_rank(g + basis, width)
    assert empty > 20


def _counted_back_substitutions(monkeypatch):
    """Calls of a reduced elimination, the one that back-substitutes, each
    on a fresh catalog: every kernel, RREF and echelon basis of linalg
    (kernel_basis, solve_affine, echelon_span) is one."""
    calls = []

    def counted(rows, ncols, reduced=True, ops=None, certify=None):
        if reduced:
            calls.append(ncols)
        return eliminate(rows, ncols, reduced, ops, certify)

    monkeypatch.setattr(linalg, "eliminate", counted)
    monkeypatch.setattr(catalog, "_CACHE", {})
    return calls


def test_a_restriction_back_substitutes_nothing(monkeypatch):
    # Z', Z, Z'', codim Z_0 and a restriction are read off ranks and
    # particular solutions, so none of them computes a kernel
    calls = _counted_back_substitutions(monkeypatch)
    radical = _assignment(get_structure("su-odd:3").operators["A"],
                          PARAMS[1])
    for query in (lambda: z_spaces(get_structure("so3-9"), "zero"),
                  lambda: flag_test(get_structure("psu3")),
                  lambda: z_spaces(get_structure("su-odd:3"), "A", radical),
                  lambda: restrict_structure(get_structure("su-odd:3"), "A",
                                             radical)):
        catalog._CACHE.clear()
        query()
        assert calls == []
    # neither system of a restriction is back-substituted: the coverage
    # verdict is read off the ambient rows stacked with the subspace rows
    hyperplane = Subspace.coordinate(8, range(1, 8))
    for warm in (False, True):
        catalog._CACHE.clear()
        s = get_structure("psu3")
        if warm:
            flag_test(s)
        for _ in range(2):
            rep = restrict_structure(s, "zero", None, hyperplane)
            assert rep.projection_onto is not None
        assert calls == []


def test_equivariant_maps_returns_a_fresh_list():
    lie = get_structure("su-odd:2").lie
    first = equivariant_maps(lie)
    expected = list(first)
    first.clear()
    assert equivariant_maps(lie) == expected
    again = equivariant_maps(lie)
    again.append(again[0])
    assert equivariant_maps(lie) == expected
    # nor the maps themselves: mutating one leaves the next call intact
    printed = [repr(h) for h in expected]
    assert str(expected[0].images[0]) == "e[1,5]"
    mutated = equivariant_maps(lie)
    mutated[0].images[0] = Form.zero(5)
    mutated[1].images[1].terms.clear()
    assert [repr(h) for h in equivariant_maps(lie)] == printed


def test_equivariant_maps_are_pinned():
    # the flattened maps of the catalog, pinned before the action on
    # Hom(T, Lambda^2 T) moved from Forms to sparse coordinates
    flat = [[[str(x) for x in h.flatten()]
             for h in equivariant_maps(get_structure(name).lie)]
            for name in CATALOG]
    assert [len(maps) for maps in flat] == [0, 2, 0, 7, 5, 3, 1, 1, 0, 1,
                                            0, 0, 1]
    assert hashlib.sha256(json.dumps(flat).encode()).hexdigest() == \
        "0426275363e2954d85fcd626e4a6eff34b8240dc8bc3897bcb9bc84e258e8cf1"


def test_analysis_is_built_by_the_first_query():
    s = _fresh("su-odd:2")
    assert s._analysis is None
    z_spaces(s, "zero")
    a = s._analysis
    assert a is not None
    check_operator(s, "A", {"lambda": 1, "mu": 0})
    assert s._analysis is a
    assert s.lie._equivariant is not None


def test_structure_to_json_is_pinned():
    # the printed Lie algebra bases, generators and operators of the
    # catalog, pinned before the bases became sparse rows
    dumps = [json.dumps(structure_to_json(get_structure(name)),
                        sort_keys=True) for name in CATALOG]
    dumps.append(json.dumps(structure_to_json(
        get_structure("psu3", as_printed=True)), sort_keys=True))
    assert hashlib.sha256("".join(dumps).encode()).hexdigest() == \
        "87a5800e948c9fe9cbe46a553a8f9cb3dbea2adffe8d175e7e27d49127f07b13"


@pytest.mark.parametrize("name", CATALOG)
def test_structure_constants_equal_all_pairs(name):
    # structure_constants brackets only a < b; here every pair is solved
    g = get_structure(name).lie
    n = g.n

    def flat(m):
        return {i * n + j: c for i, row in enumerate(m) for j, c in row.items()}

    span = Elimination(transpose([flat(x) for x in g.basis], n * n), g.dim)
    c = g.structure_constants()
    assert list(c) == [(a, b) for a in range(g.dim)
                       for b in range(a + 1, g.dim)]
    for a, x in enumerate(g.basis):
        for b, y in enumerate(g.basis):
            got = span.particular(flat(mat_bracket(x, y)))
            if a < b:
                assert got == c[a, b]
            elif a > b:
                assert got == {d: s_neg(v) for d, v in c[b, a].items()}
            else:
                assert got == {}


def _negated(row):
    return {d: s_neg(v) for d, v in row.items()}


@pytest.mark.parametrize("name", CATALOG)
def test_structure_constants_certified(name):
    # an exact certificate that needs no elimination: every row
    # recombines the basis into its bracket, and Jacobi holds on the rows
    g = get_structure(name).lie
    n, k = g.n, g.dim
    c = g.structure_constants()
    for (a, b), row in c.items():
        assert [combine([x[i] for x in g.basis], row) for i in range(n)] \
            == mat_bracket(g.basis[a], g.basis[b])
    br = {(a, b): c[a, b] if a < b else _negated(c[b, a]) if a > b else {}
          for a in range(k) for b in range(k)}
    # [[x_a, x_b], x_c] + [[x_b, x_c], x_a] + [[x_c, x_a], x_b] = 0, with
    # [[x_a, x_b], x_c] = sum_d c_ab^d [x_d, x_c]
    for a in range(k):
        for b in range(a + 1, k):
            for e in range(b + 1, k):
                rows, coeffs = [], {}
                for u, v, w in ((a, b, e), (b, e, a), (e, a, b)):
                    coeffs.update({len(rows) + d: x
                                   for d, x in br[u, v].items()})
                    rows.extend(br[d, w] for d in range(k))
                assert combine(rows, coeffs) == {}


def test_psu3_constants_are_minus_su3_f():
    # the psu3 matrices hold -f_abc, so their brackets carry -f; the
    # bracket-form check reads the +f table of _SU3_F, and gets +rho
    s = get_structure("psu3")
    c = s.lie.structure_constants()
    f = _su3_brackets()
    assert list(c) == list(f)
    assert c == {pair: _negated(row) for pair, row in f.items()}
    assert cartan_three_form(c, 8) == -s.generators["rho"]
    assert cartan_three_form(f, 8) == s.generators["rho"]


def test_lie_caches_hold_no_boxed_scalars():
    # the caches on LieRep hold kernel scalars and integers only
    def walk(x):
        assert not isinstance(x, Scalar)
        if isinstance(x, dict):
            x = [*x.keys(), *x.values()]
        if isinstance(x, (list, tuple)):
            for v in x:
                walk(v)

    algebras = [get_structure(name).lie for name in CATALOG]
    casimir_decompose(get_structure("so3-9").lie, "t-g")
    for g in algebras:
        equivariant_coords(g)
        assert g._constants is not None and g._equivariant is not None
        walk(g._constants)
        walk(g._equivariant)
