import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from edsx._kernel import ONE, s_add, s_mul, s_neg, s_quotient
from edsx.catalog import get_structure
from edsx.exterior import Form, parse_form, wedge
from edsx import _kernel, dga, exterior, linalg, rep
from edsx.rep import (CasimirError, HomMap, LieRep, _hom_columns,
                      _unit_forms, act_on_form, act_on_hom,
                      cartan_three_form, casimir_decompose,
                      equivariant_coords, equivariant_maps, gl_basis,
                      hom_dim, invariants, mat_bracket, mat_from,
                      mat_is_skew, orbit_matrix, stabilizer)
from edsx.linalg import combine, span_rank
from edsx.scalar import Scalar

from test_derivation import hom_column_reference


def S(q):
    return Scalar.of(q)


def rot(n, i, j):
    """Elementary rotation generator E_ij - E_ji as sparse rows."""
    m = [[0] * n for _ in range(n)]
    m[i - 1][j - 1] = 1
    m[j - 1][i - 1] = -1
    return mat_from(m)


def validated(name, n, mats):
    g = LieRep(name, n, mats)
    g.validate()
    return g


def to_sympy(m):
    """A sparse-row matrix as a sympy Matrix."""
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix([[sum((sympy.Rational(q.numerator, q.denominator)
                               * sympy.sqrt(d)
                               for d, q in Scalar(row.get(j)).coeffs().items()),
                              sympy.Integer(0))
                          for j in range(len(m))] for row in m])


def rand_form(rng, n, p, terms=3):
    f = Form.zero(n)
    for _ in range(terms):
        idx = tuple(sorted(rng.sample(range(1, n + 1), p)))
        f = f + Form.monomial(n, idx, S(rng.randrange(-4, 5)))
    return f


def test_gl_basis_counts():
    assert len(gl_basis(5)) == 25
    assert len(gl_basis(5, skew=True)) == 10
    assert all(mat_is_skew(m) for m in gl_basis(4, skew=True))
    # E_11 has a nonzero diagonal entry, E_12 an entry without its mirror
    e11, e12 = gl_basis(2)[:2]
    assert not mat_is_skew(e11) and not mat_is_skew(e12)


def test_mat_bracket_antisymmetry():
    a = rot(4, 1, 2)
    b = rot(4, 2, 3)
    ab = mat_bracket(a, b)
    ba = mat_bracket(b, a)
    assert ab == [{j: s_neg(c) for j, c in row.items()} for row in ba]
    assert mat_is_skew(ab)


def test_mat_bracket_is_the_sympy_commutator():
    rng = random.Random(23)
    entries = [Scalar.parse(t) for t in
               ("1", "-2", "1/3", "r2", "-r3/2", "1 + r5", "r7 - 2*r3")]
    mats = get_structure("so3-9").lie.basis
    pairs = [(x, y) for x in mats for y in mats]
    for _ in range(12):
        n = rng.randrange(1, 6)
        x, y = ([[rng.choice(entries) if rng.random() < 0.3 else 0
                  for _ in range(n)] for _ in range(n)] for _ in range(2))
        pairs.append((mat_from(x), mat_from(y)))
    for x, y in pairs:
        bx, by = to_sympy(x), to_sympy(y)
        want = (bx * by - by * bx).applyfunc(lambda e: e.expand())
        assert to_sympy(mat_bracket(x, y)) == want


def test_act_on_form_is_a_derivation():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randrange(2, 6)
        x = mat_from([[rng.randrange(-2, 3) for _ in range(n)]
                      for _ in range(n)])
        a = rand_form(rng, n, rng.randrange(1, n), 2)
        b = rand_form(rng, n, rng.randrange(1, n), 2)
        left = act_on_form(x, wedge(a, b))
        right = wedge(act_on_form(x, a), b) + wedge(a, act_on_form(x, b))
        assert left == right


def test_stabilizer_fixes_its_form():
    s = get_structure("g2")
    phi = s.generators["phi"]
    g = stabilizer(phi, skew=True)
    assert g.dim == 14
    assert all(act_on_form(m, phi).is_zero() for m in g.basis)


def test_orbit_matrix_rank_matches_stabilizer():
    rho = get_structure("psu3").generators["rho"]
    assert span_rank(orbit_matrix(rho), 64) == 64 - stabilizer(rho).dim


def test_invariants_are_invariant():
    s = get_structure("so3-9")
    for p in (4, 5):
        for b in invariants(s.lie, p):
            assert all(act_on_form(m, b).is_zero() for m in s.lie.basis)
    assert len(invariants(s.lie, 1)) == 0


def test_hom_map_roundtrip():
    rng = random.Random(22)
    n = 4
    assert hom_dim(n) == n * n * (n - 1) // 2
    vec = [S(rng.randrange(-3, 4)) for _ in range(hom_dim(n))]
    h = HomMap.from_coords(n, {k: x.c for k, x in enumerate(vec) if x})
    assert h.flatten() == vec
    assert HomMap.from_coords(n, h.coords()) == h
    assert HomMap.from_coords(n, {}).is_zero()
    assert not h.is_zero()


def test_act_on_hom_equivariance_of_invariant_maps():
    s = get_structure("su-odd:2")
    maps = equivariant_maps(s.lie)
    assert len(maps) == 7
    for h in maps:
        for x in s.lie.basis:
            assert act_on_hom(x, h).is_zero()


CATALOG = ("su-even:2", "su-even:3", "su-even:4", "su-odd:2", "su-odd:3",
           "su-odd:4", "psu3", "psu3-dual", "so3-9", "g2", "spin7",
           "sp2sp1", "example-712")


def assert_hom_columns(x, n):
    """Every column of x on Hom(T, Lambda^2 T), and act_on_hom of every
    unit map, is the Leibniz reference, which knows only wedge."""
    column = _hom_columns(x, n, _unit_forms(n, 2))
    for k in range(hom_dim(n)):
        want = hom_column_reference(x, n, k)
        assert column(k) == want, k
        assert act_on_hom(x, HomMap.from_coords(n, {k: ONE})).coords() \
            == want, k


@pytest.mark.parametrize("name", CATALOG)
def test_hom_operator_columns_are_the_form_action_on_units(name):
    # column k of the action in Hom coordinates is x . u_k for the unit map
    # u_k, expanded on Forms by Leibniz
    g = get_structure(name).lie
    for x in g.basis:
        assert_hom_columns(x, g.n)


def test_hom_columns_of_matrices_with_a_diagonal():
    # diagonal entries put -D o x and x . (e^p ^ e^q) on one cell, where
    # diag(1, -1, 2, -2) cancels the 2-form part on e^1 ^ e^2
    n = 4
    mats = gl_basis(n) + [mat_from([[1, 0, 0, 0], [0, -1, 0, 0],
                                    [0, 0, 2, 0], [0, 0, 0, -2]]),
                          mat_from([[1, 2, 0, 0], [0, 3, 0, -1],
                                    [1, 0, 1, 0], [0, 0, 5, 2]])]
    for x in mats:
        assert_hom_columns(x, n)


@pytest.mark.parametrize("name", ["su-odd:3", "g2"])
def test_equivariant_maps_do_not_depend_on_the_basis_of_g(name):
    g = get_structure(name).lie
    rng = random.Random("recombine:" + name)
    while True:
        # each new generator mixes three old ones
        coeffs = [{b: s_quotient(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
                   for b in rng.sample(range(g.dim), 3)}
                  for _ in range(g.dim)]
        if span_rank(coeffs, g.dim) == g.dim:
            break
    by_row = list(zip(*g.basis))
    mats = [[combine(rows, row) for rows in by_row] for row in coeffs]
    other = LieRep(name + " recombined", g.n, mats)
    assert other.basis != g.basis
    assert equivariant_maps(other) == equivariant_maps(g)


def test_stabilizer_of_phi_has_the_g2_maps():
    s = get_structure("g2")
    maps = equivariant_maps(stabilizer(s.generators["phi"]))
    assert len(maps) == 1
    assert maps == equivariant_maps(s.lie)


def _count(monkeypatch, modules, names, calls):
    for module in modules:
        for name in names:
            real = getattr(module, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)


def test_equivariant_maps_build_no_form_per_basis_element(monkeypatch):
    # the kernels combine unit columns: each call builds the unit forms of
    # (n, p) once and no other Form but the ones invariants returns, and
    # derivation_images runs at most once per generator and unit form
    g = get_structure("su-odd:4").lie
    forms, calls = [], []
    real_init, real_images = Form.__init__, rep.derivation_images

    def init(self, *args, **kwargs):
        forms.append(args)
        real_init(self, *args, **kwargs)

    def images(a, by_index, table=None):
        calls.append((repr(by_index), a))
        return real_images(a, by_index, table)

    def check_calls(p):
        assert calls
        assert len({(index, id(a)) for index, a in calls}) == len(calls)
        assert all(list(a.terms.values()) == [Scalar.of(1)]
                   and len(next(iter(a.terms))) == p for _, a in calls)

    monkeypatch.setattr(Form, "__init__", init)
    monkeypatch.setattr(rep, "derivation_images", images)
    fresh = LieRep("su-odd:4 fresh", g.n, g.basis)
    assert len(equivariant_coords(fresh)) == 3
    assert len(forms) == comb(g.n, 2)
    check_calls(2)
    calls.clear()
    # equivariant_maps reads the shared coordinates
    assert len(equivariant_maps(fresh)) == 3
    assert calls == []
    for p in (2, 3):
        forms.clear()
        basis = invariants(fresh, p)
        assert len(forms) == comb(g.n, p) + len(basis)
        check_calls(p)
        calls.clear()


def test_kernels_build_columns_of_the_generating_subset_only(monkeypatch):
    # su-odd:4's basis matrices 0, 1, 2 and 4 generate its 15 under
    # brackets; the first kernel reads its columns with no combine
    g = get_structure("su-odd:4").lie
    events = []
    real_hom, real_unit, real_combine = (rep._hom_columns, rep._unit_columns,
                                         rep.combine)

    def logged(kind, real):
        def build(x, *args):
            s = next(s for s, b in enumerate(g.basis) if b is x)
            events.append((kind, s))
            column = real(x, *args)

            def call(k):
                events.append(("column", s))
                return column(k)
            return call
        return build

    def combine(rows, coeffs):
        events.append(("combine", None))
        return real_combine(rows, coeffs)

    def first_pass(kind):
        built = [s for k, s in events if k == kind]
        assert built == [0, 1, 2, 4]
        start = events.index(("column", 0))
        return events[start:events.index(("column", 1), start)]

    monkeypatch.setattr(rep, "_hom_columns", logged("hom", real_hom))
    monkeypatch.setattr(rep, "_unit_columns", logged("unit", real_unit))
    monkeypatch.setattr(rep, "combine", combine)
    assert len(equivariant_coords(LieRep("fresh", g.n, g.basis))) == 3
    assert ("combine", None) not in first_pass("hom")
    events.clear()
    assert len(invariants(LieRep("fresh", g.n, g.basis), 3)) == 1
    assert ("combine", None) not in first_pass("unit")


def test_unit_tables_run_no_product(monkeypatch):
    # the extension and orbit rows are signed copies of the coefficients
    s = get_structure("so3-9")
    forms = list(s.generators.values())
    a = s.generators["star-gamma"]
    calls = []
    _count(monkeypatch, [_kernel, exterior, linalg, rep], ["s_mul"], calls)
    ext = dga.extension(9, forms)
    assert len(orbit_matrix(a)) == comb(9, a.degree)
    assert len(orbit_matrix(a, skew=True)) == comb(9, a.degree)
    rep.act_on_form(gl_basis(9)[1], a)
    assert calls == []
    # the counters see the products where they are still taken: in the
    # elimination, and for coefficients other than +-1
    assert ext.rank == 200
    assert "s_mul" in calls
    calls.clear()
    rep.act_on_form([{1: s_quotient(2)}] + [{}] * 8, a)
    assert "s_mul" in calls


def test_structure_constants_of_rotations():
    mats = [rot(3, 3, 2), rot(3, 1, 3), rot(3, 2, 1)]
    g = validated("so3", 3, mats)
    c = g.structure_constants()
    # one row per pair a < b, and nothing for b > a
    assert list(c) == [(0, 1), (0, 2), (1, 2)]
    # [L_a, L_b] = eps_abc L_c
    assert c[0, 1] == {2: ONE}
    # [L_2, L_1] is read as the negation of the (0, 1) row
    assert {d: s_neg(v) for d, v in c[0, 1].items()} == {2: s_neg(ONE)}
    assert c[0, 2] == {1: s_neg(ONE)}
    assert g.structure_constants() is c


def test_structure_constants_reject_open_brackets():
    mats = [rot(3, 1, 2)]
    g = validated("t", 3, mats)
    # one generator: no pair, so no row
    assert g.structure_constants() == {}
    bad = LieRep("open", 3, [rot(3, 1, 2), rot(3, 2, 3)])
    with pytest.raises(ValueError):
        bad.structure_constants()


@pytest.mark.parametrize("rows, message", [
    ([{1: ONE}, {0: s_neg(ONE), 3: ONE}, {}], "is not 3x3"),
    ([{1: ONE}, {0: s_neg(ONE), 2: None}, {}], "stores a zero"),
], ids=["column-past-n", "stored-zero"])
def test_validate_rejects_malformed_rows(rows, message):
    # sparse equality needs zeros absent and columns inside 0..n-1
    with pytest.raises(ValueError, match=message):
        LieRep("bad", 3, [rows]).validate()


def test_validate_rejects_dependent_basis():
    # a repeated generator would make dim report 4 for so(3)
    mats = [rot(3, 3, 2), rot(3, 1, 3), rot(3, 2, 1)]
    dup = LieRep("dup", 3, mats + [mats[0]])
    with pytest.raises(ValueError, match="dup: basis is linearly dependent"):
        dup.validate()


def test_a_dependent_basis_is_named_before_a_bracket_outside_it():
    # [L_1, L_2] = L_3 leaves span{L_1, L_2}, but the repeat fires first
    mats = [rot(3, 3, 2), rot(3, 1, 3), rot(3, 1, 3)]
    with pytest.raises(ValueError, match="basis is linearly dependent"):
        LieRep("dup", 3, mats).structure_constants()
    with pytest.raises(ValueError, match=r"bracket \[0,1\] leaves the span"):
        LieRep("half", 3, mats[:2]).structure_constants()


@pytest.mark.parametrize("name", ["su-odd:2", "psu3"])
def test_structure_constants_factor_the_basis_once(monkeypatch, name):
    calls = []

    def counted(rows, ncols, reduced=True, ops=None, certify=None):
        calls.append(ops is not None)
        return _kernel.eliminate(rows, ncols, reduced, ops, certify)

    lie = get_structure(name).lie
    want = lie.structure_constants()
    fresh = LieRep(lie.name, lie.n, lie.basis, skew=lie.skew)
    monkeypatch.setattr(linalg, "eliminate", counted)
    assert fresh.structure_constants() == want
    # one factorization, whose pivot count is the rank
    assert calls == [True]


def test_cartan_three_form_of_rotations():
    # [L_a, L_b] = eps_abc L_c over the pairs a < b
    eps = {(0, 1): {2: ONE}, (0, 2): {1: s_neg(ONE)}, (1, 2): {0: ONE}}
    assert cartan_three_form(eps, 3) == parse_form("e[1,2,3]", 3)
    g = validated("so3", 3, [rot(3, 3, 2), rot(3, 1, 3), rot(3, 2, 1)])
    assert g.structure_constants() == eps


def test_casimir_decomposition_of_rotation_triple():
    g = get_structure("so3-9").lie
    t = casimir_decompose(g, "quotient")
    assert (t.dim, t.components) == (297, 25)
    whole = casimir_decompose(g, "t-lambda2")
    sub = casimir_decompose(g, "t-g")
    assert whole.dim == 324 and sub.dim == 27
    assert whole.dim - sub.dim == t.dim
    # T (x) g = V9 (x) V3 = V7 + V9 + V11
    assert sub.parts == [(7, 1), (9, 1), (11, 1)]
    assert t.kappa == Scalar.of(-2)


def test_casimir_needs_three_dimensional_algebra():
    g = get_structure("g2").lie
    with pytest.raises(ValueError):
        casimir_decompose(g, "t-gperp")


def _tensor_operators(v_ops, w_ops, dim_v, dim_w):
    """x (x) 1 + 1 (x) x on V (x) W, v_a (x) w_i at column a * dim_w + i."""
    return dim_v * dim_w, [[rep._tensor_line(xv[a], xw[i], a, i, dim_w)
                            for a in range(dim_v) for i in range(dim_w)]
                           for xv, xw in zip(v_ops, w_ops)]


def _factor_operators(g, space):
    """The tensor factors of a space as (dimension, [action of each
    generator as sparse rows]); the operators of T are the basis matrices
    themselves."""
    n = g.n
    t = (n, g.basis)
    if space == "T":
        return [t]
    if space == "t-lambda2":
        # x acts on bivectors e_j ^ e_k as -x acts on the coframe; the rows
        # are the transposed unit columns
        units = _unit_forms(n, 2)
        m = len(units)
        neg = [[{j: s_neg(c) for j, c in row.items()} for row in x]
               for x in g.basis]
        return [t, (m, [linalg.transpose(list(map(
            rep._unit_columns(x, n, 2, units), range(m))), m) for x in neg])]
    assert space == "t-g"
    k = g.dim
    # ad(x_a) x_b = [x_a, x_b] and ad(x_b) x_a = -[x_a, x_b]
    ad_ops = [[{} for _ in range(k)] for _ in range(k)]
    for (a, b), row in g.structure_constants().items():
        for d, c in row.items():
            ad_ops[a][d][b] = c
            ad_ops[b][d][a] = s_neg(c)
    return [(k, ad_ops), t]


def _product_operators(g, space):
    """(dimension, [action of each generator as sparse rows]) on a tensor
    space, built factor by factor."""
    (dim, ops), *rest = _factor_operators(g, space)
    for dim_w, w_ops in rest:
        dim, ops = _tensor_operators(ops, w_ops, dim, dim_w)
    return dim, ops


def _square_sum(ops, dim, at):
    """The rows at of sum_b op_b^2, for sparse-row operators op_b on dim
    coordinates: row i combines the rows k of each op_b by op_b[i][k]."""
    return [combine([row for op in ops for row in op],
                    {b * dim + k: c for b, op in enumerate(ops)
                     for k, c in op[i].items()}) for i in at]


def _kernel_dim_shift(rows, c, dim):
    """dim ker(M + c I) for sparse rows of M and a kernel scalar c."""
    out = [dict(row) for row in rows]
    for i, row in enumerate(out):
        x = s_add(row.get(i), c)
        if x:
            row[i] = x
        else:
            row.pop(i, None)
    return dim - span_rank(out, dim)


def _reference_calibration(g):
    """(kappa, s) read off T itself, for an irreducible T of odd dimension
    n = 2 j_T + 1: C = sum_b x_b^2 acts on T as the scalar kappa j_T (j_T + 1),
    and the weights -j_T..j_T of T give the first generator H the trace
    tr(H^2) = -s j_T (j_T + 1) n / 3."""
    n = g.n
    j_t = (n - 1) // 2
    C = _square_sum(g.basis, n, range(n))
    c0 = C[0][0]
    assert n % 2 and j_t
    assert C == [{i: c0} for i in range(n)]
    tr = None
    for i, row in enumerate(_square_sum(g.basis[:1], n, range(n))):
        tr = s_add(tr, row.get(i))
    return (Scalar(c0) / (j_t * (j_t + 1)),
            s_mul(tr, s_quotient(-3, j_t * (j_t + 1) * n)))


def _casimir_oracle(g, space):
    """(dim, parts) of a space by the Casimir eigen-solve: C = sum_b x_b^2
    on the whole tensor space, restricted to the zero-weight block
    B_0 = ker H, where C acts because it commutes with H.  A summand of
    spin j has one vector of weight 0, so spin j occurs
    dim ker(C|B_0 - kappa j(j + 1)) times, for j = 0, 1, ... until B_0
    is filled."""
    if space in ("t-gperp", "quotient"):
        (dim, whole), (sub_dim, sub) = (_casimir_oracle(g, "t-lambda2"),
                                        _casimir_oracle(g, "t-g"))
        parts = dict(whole)
        for d, m in sub:
            parts[d] -= m
        return dim - sub_dim, sorted((d, m) for d, m in parts.items() if m)
    kappa, _ = _reference_calibration(g)
    dim, ops = _product_operators(g, space)
    # a kernel vector is a unit on its free column and zero on the others',
    # so the coordinate of C v on the vector of f is (C v)[f]
    zero = {max(v): v for v in linalg.kernel_basis(ops[0], dim)}
    vt = linalg.transpose(list(zero.values()), dim)
    rows = [combine(vt, row) for row in _square_sum(ops, dim, zero)]
    mult = []
    while sum(mult) < len(zero):
        j = len(mult)
        assert 2 * j + 1 <= dim
        lam = kappa * (j * (j + 1))
        mult.append(_kernel_dim_shift(rows, s_neg(lam.c), len(rows)))
    return dim, [(2 * j + 1, k) for j, k in enumerate(mult) if k]


def _kernel_dim_qq(rows, dim, m):
    """dim ker(M^2 + m^2 I) over QQ, for sparse rows of Fractions, by
    sympy's elimination."""
    M = DomainMatrix({i: {j: QQ(q.numerator, q.denominator)
                          for j, q in row.items()}
                      for i, row in enumerate(rows) if row}, (dim, dim), QQ)
    shift = DomainMatrix.eye(dim, QQ).to_sparse() * QQ(m * m)
    return dim - (M * M + shift).rank()


@pytest.mark.parametrize("space", ["T", "t-g", "t-lambda2"])
def test_weight_blocks_are_kernels_of_the_shifted_square(space):
    g = get_structure("so3-9").lie
    dim, ops = _product_operators(g, space)
    # the first generator is r2 times a rational matrix Hhat
    hhat = [{j: Scalar(c).coeffs()[2] for j, c in row.items()}
            for row in ops[0]]
    assert all(set(Scalar(c).coeffs()) == {2}
               for row in ops[0] for c in row.values())
    # H^2 = 2 Hhat^2, so the scale s of ker(H^2 + s m^2) is 2 and the
    # block of weights +-m is ker(Hhat^2 + m^2) over QQ
    _, s = _reference_calibration(g)
    assert s == s_quotient(2)
    n = rep._space_weights(space, 4)
    top = max(n) + 1
    assert sum(n.values()) == dim
    assert ([n[0]] + [n[m] + n[-m] for m in range(1, top + 1)]
            == [_kernel_dim_qq(hhat, dim, m) for m in range(top + 1)])
    if space == "T":
        assert rep._weight_counts(ops[0], dim, s) == [1] * 5


def _spin_parts(weights):
    """Sorted (2j + 1, multiplicity) of a module with these integer
    weights: mult_j = n(j) - n(j + 1), n(w) the count of weight w."""
    n = Counter(weights)
    return [(2 * j + 1, n[j] - n[j + 1])
            for j in range(max(weights, default=-1) + 1) if n[j] != n[j + 1]]


def _weight_oracle(n, space):
    """(dim, parts) of a Casimir space over T = V_n, from weights alone:
    T has weights -j_T..j_T, g the weights -1, 0, 1, Lambda^2 T the sums
    over pairs of distinct weight positions, a tensor product the
    pairwise sums."""
    t = range(-(n // 2), n // 2 + 1)

    def tensor(v, w):
        return [a + b for a in v for b in w]

    weights = {"T": list(t), "t-g": tensor((-1, 0, 1), t),
               "t-lambda2": tensor(t, [a + b for a, b in combinations(t, 2)])}
    if space not in ("t-gperp", "quotient"):
        return len(weights[space]), _spin_parts(weights[space])
    whole = dict(_spin_parts(weights["t-lambda2"]))
    for d, m in _spin_parts(weights["t-g"]):
        whole[d] -= m
    return (len(weights["t-lambda2"]) - len(weights["t-g"]),
            sorted((d, m) for d, m in whole.items() if m))


def _reordered(order):
    h, x, y = get_structure("so3-9").lie.basis
    mats = {"H": h, "X": x, "Y": y}
    return LieRep("so3-9 (%s)" % ", ".join(order), 9,
                  [mats[k] for k in order])


ALGEBRAS = {"so3-9": lambda: get_structure("so3-9").lie,
            "rotations": lambda: _rotations(),
            "Y, H, X": lambda: _reordered("YHX"),
            "X, Y, H": lambda: _reordered("XYH")}

SPACES = ["T", "t-g", "t-lambda2", "t-gperp", "quotient"]


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_casimir_parts_match_the_weight_count(algebra, space):
    g = ALGEBRAS[algebra]()
    dec = casimir_decompose(g, space)
    assert (dec.dim, dec.parts) == _weight_oracle(g.n, space)
    assert (dec.dim, dec.parts) == _casimir_oracle(g, space)
    assert dec.dim == sum(d * m for d, m in dec.parts)


def test_t_gperp_calibrates_and_counts_t_once(monkeypatch):
    g = get_structure("so3-9").lie
    killings, ranks = [], []

    def killing(g):
        killings.append(g)
        return real(g)

    def rank(rows, ncols):
        ranks.append((len(rows), ncols))
        return linalg.span_rank(rows, ncols)

    def kernel(rows, ncols):
        raise AssertionError("casimir_decompose takes no kernel")

    real = rep._check_killing
    monkeypatch.setattr(rep, "_check_killing", killing)
    monkeypatch.setattr(rep, "span_rank", rank)
    monkeypatch.setattr(rep, "kernel_basis", kernel)
    dec = casimir_decompose(g, "t-gperp")
    assert (dec.dim, dec.components) == (297, 25)
    # both scales come from the one Killing form
    assert killings == [g]
    # T's counts, ker H and ker(H^2 + s a^2) for a = 1..4, are the only
    # ranks: no operator is built on a tensor space
    assert ranks == [(9, 9)] * 5


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_killing_scales_match_the_calibration_on_t(algebra, monkeypatch):
    # kappa = beta / 2 and s = -beta / 2 from the Killing form beta I are
    # the scales that C and tr(H^2) give on T itself
    g = ALGEBRAS[algebra]()
    scales = []
    real = rep._weight_counts

    def counts(h, dim, s):
        scales.append(s)
        return real(h, dim, s)

    monkeypatch.setattr(rep, "_weight_counts", counts)
    kappa, s = _reference_calibration(g)
    assert casimir_decompose(g, "T").kappa == kappa
    assert scales == [s]


def _whole_space_sizes(g, space, top):
    """dim ker(H^2 + s m^2) for m = 0..top, by ranks over every column of
    the tensor space's own first-generator operator H."""
    _, s = _reference_calibration(g)
    dim, ops = _product_operators(g, space)
    h2 = _square_sum(ops[:1], dim, range(dim))
    return [_kernel_dim_shift(h2, s_mul(s, s_quotient(m * m)), dim)
            for m in range(top + 1)]


@pytest.mark.parametrize("space", ["t-lambda2", "t-g"])
@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_factor_weight_counts_match_the_whole_space_ranks(algebra, space):
    g = ALGEBRAS[algebra]()
    n = rep._space_weights(space, g.n // 2)
    top = max(n) + 1
    assert ([n[0]] + [n[m] + n[-m] for m in range(1, top + 1)]
            == _whole_space_sizes(g, space, top))


def _diagonal_rotations(copies):
    """so(3) acting on R^(3 copies) by the same rotation on every block."""
    n = 3 * copies
    mats = []
    for i, j in ((3, 2), (1, 3), (2, 1)):
        m = [[0] * n for _ in range(n)]
        for k in range(0, n, 3):
            m[k + i - 1][k + j - 1] = 1
            m[k + j - 1][k + i - 1] = -1
        mats.append(mat_from(m))
    return LieRep("%d so3" % copies, n, mats)


def _doubled_first():
    h, x, y = get_structure("so3-9").lie.basis
    return LieRep("so3-9 (2H, X, Y)", 9, [
        [{j: s_mul(c, s_quotient(2)) for j, c in row.items()} for row in h],
        x, y])


def _heisenberg():
    def unit(i, j):
        m = [{} for _ in range(3)]
        m[i][j] = ONE
        return m
    return LieRep("heisenberg", 3, [unit(0, 1), unit(1, 2), unit(0, 2)],
                  skew=False)


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("algebra, match", [
    # nilpotent: the Killing form vanishes
    (_heisenberg, "Killing form is not a nonzero multiple"),
    # the Killing form is diag(-16, -4, -4): C is no Casimir
    (_doubled_first, "Killing form is not a nonzero multiple"),
    # three copies of V3: C is scalar on T, but the weights 0 and +-1 in
    # the scale of g occur three times each
    (lambda: _diagonal_rotations(3), "T is not irreducible"),
    # 33 copies of V3: 99 dimensions, odd like V99's, and the weights 0
    # and +-1 occur 33 times each
    (lambda: _diagonal_rotations(33), "T is not irreducible"),
    # su(2) on C^2 = R^4 and on C^2 + R = R^5: the weights +-1/2 are not
    # integers in the scale of g
    (lambda: get_structure("su-even:2").lie, "^weights of the first "
     "generator on T are not integers in the scale of g$"),
    (lambda: get_structure("su-odd:2").lie, "^weights of the first "
     "generator on T are not integers in the scale of g$"),
], ids=["heisenberg", "doubled-first", "three-copies", "33-copies",
        "su2-on-c2", "su2-on-c2-plus-r"])
def test_casimir_rejects_algebras_off_its_hypotheses(algebra, match, space):
    with pytest.raises(CasimirError, match=match):
        casimir_decompose(algebra(), space)


@pytest.mark.parametrize("h, dim, s", [
    # a nilpotent Jordan block: ker h has 1 of 3 dimensions and no weight
    # +-a fills the rest
    (lambda: [{1: ONE}, {2: ONE}, {}], 3, 2),
    # the weights of so3-9's H are integers in the scale 2, not 3
    (lambda: get_structure("so3-9").lie.basis[0], 9, 3),
    # a rotation of the plane has weights +-1/2 in the scale 4
    (lambda: [{1: ONE}, {0: s_neg(ONE)}], 2, 4),
    # real weights 1 and 0 in the scale -1: the block of +-1 has odd size
    (lambda: [{0: ONE}, {}], 2, -1),
], ids=["jordan", "so3-9-scale-3", "half-weights", "odd-block"])
def test_weight_counts_reject_a_factor_off_the_scale(h, dim, s):
    with pytest.raises(CasimirError,
                       match="^weights of the first generator on T are not "
                             "integers in the scale of g$"):
        rep._weight_counts(h(), dim, s_quotient(s))


def test_weight_counts_of_a_factor():
    g = get_structure("so3-9").lie
    # T = V9: weights -4..4, one each
    assert rep._weight_counts(g.basis[0], 9, s_quotient(2)) == [1] * 5
    # the plane's rotation in the scale 1: weights +-1
    assert rep._weight_counts([{1: ONE}, {0: s_neg(ONE)}], 2, ONE) == [0, 1]


def _rotations():
    return validated("so3", 3, [rot(3, 3, 2), rot(3, 1, 3), rot(3, 2, 1)])


@pytest.mark.parametrize("space", ["t-lambda2", "t-g"])
def test_casimir_of_rational_rotations(space):
    # T = V3, so V3 (x) V3 = V1 + V3 + V5 on both spaces
    dec = casimir_decompose(_rotations(), space)
    assert (dec.dim, dec.parts) == (9, [(1, 1), (3, 1), (5, 1)])
    assert dec.kappa == Scalar.of(-1)


def test_casimir_of_rational_rotations_leaves_no_complement():
    dec = casimir_decompose(_rotations(), "t-gperp")
    assert (dec.dim, dec.parts, dec.kappa) == (0, [], Scalar.of(-1))


@pytest.mark.parametrize("space, dim, parts", [
    ("t-g", 27, [(7, 1), (9, 1), (11, 1)]),
    ("T", 9, [(9, 1)]),
])
def test_casimir_with_a_mixed_radical_first_generator(space, dim, parts):
    h, x, y = get_structure("so3-9").lie.basis
    # Y has entries 2, r5 and r7 at once
    g = LieRep("so3-9 (Y, H, X)", 9, [y, h, x])
    dec = casimir_decompose(g, space)
    assert (dec.dim, dec.parts) == (dim, parts)
    assert dec.kappa == Scalar.of(-2)


def test_casimir_rejects_unknown_spaces():
    with pytest.raises(CasimirError):
        casimir_decompose(get_structure("so3-9").lie, "hom")


def test_casimir_rejects_a_reducible_t():
    # so(3) on R^3 plus a trivial line: C is -2 on R^3 and 0 on the line,
    # and the weight 0 occurs twice
    g = LieRep("so3+1", 4, [rot(4, 3, 2), rot(4, 1, 3), rot(4, 2, 1)])
    with pytest.raises(CasimirError, match="T is not irreducible"):
        casimir_decompose(g, "T")
