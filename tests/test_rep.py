import random
from collections import Counter
from itertools import combinations

import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from edsx._kernel import ONE, s_mul, s_neg, s_quotient
from edsx.catalog import get_structure
from edsx.exterior import Form, parse_form, wedge
from edsx import linalg, rep
from edsx.rep import (CasimirError, HomMap, LieRep, _check_weights,
                      _hom_operator, _space_operators, act_on_form, act_on_hom,
                      cartan_three_form, casimir_decompose, equivariant_maps,
                      gl_basis, hom_dim, invariants, mat_bracket, mat_from,
                      mat_is_skew, orbit_matrix, stabilizer)
from edsx.linalg import combine, span_rank, transpose
from edsx.scalar import Scalar


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


@pytest.mark.parametrize("name", CATALOG)
def test_hom_operator_columns_are_the_form_action_on_units(name):
    # column k of the coordinate operator is x . u_k for the unit map u_k,
    # computed on Forms by act_on_hom
    g = get_structure(name).lie
    n = g.n
    for x in g.basis:
        cols = transpose(_hom_operator(x, n), hom_dim(n))
        for k, col in enumerate(cols):
            unit = HomMap.from_coords(n, {k: ONE})
            assert col == act_on_hom(x, unit).coords(), (name, k)


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


def test_equivariant_maps_build_no_form_per_basis_element(monkeypatch):
    calls = []
    for name in ("act_on_hom", "derivation_form"):
        real = getattr(rep, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(rep, name, counted)
    g = get_structure("su-odd:4").lie
    fresh = LieRep("su-odd:4 fresh", g.n, g.basis)
    assert len(equivariant_maps(fresh)) == 3
    assert calls == []
    # the counters see the Form path where it is still taken
    invariants(fresh, 2)
    assert "derivation_form" in calls


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


def _recorded_casimir(monkeypatch, g, space):
    """casimir_decompose(g, space) with the arguments and results of its
    kernel_basis and span_rank calls, and the arguments of _check_weights."""
    calls = {"kernel": [], "rank": [], "check": []}

    def kernel(rows, ncols):
        out = linalg.kernel_basis(rows, ncols)
        calls["kernel"].append((rows, ncols, out))
        return out

    def rank(rows, ncols):
        calls["rank"].append((len(rows), ncols))
        return linalg.span_rank(rows, ncols)

    def check(mult, sizes, dim):
        calls["check"].append((list(mult), list(sizes), dim))
        return _check_weights(mult, sizes, dim)

    monkeypatch.setattr(rep, "kernel_basis", kernel)
    monkeypatch.setattr(rep, "span_rank", rank)
    monkeypatch.setattr(rep, "_check_weights", check)
    return casimir_decompose(g, space), calls


def _kernel_dim_qq(rows, dim, m):
    """dim ker(M^2 + m^2 I) over QQ, for sparse rows of Fractions, by
    sympy's elimination."""
    M = DomainMatrix({i: {j: QQ(q.numerator, q.denominator)
                          for j, q in row.items()}
                      for i, row in enumerate(rows) if row}, (dim, dim), QQ)
    shift = DomainMatrix.eye(dim, QQ).to_sparse() * QQ(m * m)
    return dim - (M * M + shift).rank()


@pytest.mark.parametrize("space", ["T", "t-g", "t-lambda2"])
def test_weight_blocks_are_kernels_of_the_shifted_square(space, monkeypatch):
    g = get_structure("so3-9").lie
    dim, ops = _space_operators(g, space)
    # the first generator is r2 times a rational matrix Hhat
    hhat = [{j: Scalar(c).coeffs()[2] for j, c in row.items()}
            for row in ops[0]]
    assert all(set(Scalar(c).coeffs()) == {2}
               for row in ops[0] for c in row.values())

    def apply(v):
        out = {}
        for i, row in enumerate(hhat):
            x = sum(q * v[j] for j, q in row.items() if j in v)
            if x:
                out[i] = x
        return out

    _, calls = _recorded_casimir(monkeypatch, g, space)
    # one kernel, of H on the whole space: the zero-weight block B_0
    (rows, ncols, zero), = calls["kernel"]
    assert (rows, ncols) == (ops[0], dim)
    (mult, sizes, checked_dim), = calls["check"]
    assert checked_dim == dim
    # H^2 = 2 Hhat^2, so the scale s of ker(H^2 + s m^2) is 2 and the
    # block sizes are dim ker(Hhat^2 + m^2) over QQ
    assert len(zero) == _kernel_dim_qq(hhat, dim, 0)
    assert sizes == [_kernel_dim_qq(hhat, dim, m)
                     for m in range(1, len(sizes) + 1)]
    assert len(zero) + sum(sizes) == dim
    assert _kernel_dim_qq(hhat, dim, len(sizes) + 1) == 0
    free = [max(vec) for vec in zero]
    for f, vec in zip(free, zero):
        assert all(set(Scalar(c).coeffs()) == {1} for c in vec.values())
        v = {j: Scalar(c).coeffs()[1] for j, c in vec.items()}
        # a unit on its free column, zero on the block's other ones
        assert v[f] == 1
        assert not any(k in v for k in free if k != f)
        assert apply(v) == {}


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
    if space != "t-gperp":
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


@pytest.mark.parametrize("space", ["T", "t-g", "t-lambda2", "t-gperp"])
@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_casimir_parts_match_the_weight_count(algebra, space):
    g = ALGEBRAS[algebra]()
    dec = casimir_decompose(g, space)
    assert (dec.dim, dec.parts) == _weight_oracle(g.n, space)
    assert dec.dim == sum(d * m for d, m in dec.parts)


def test_weight_certificate_accepts_only_matching_sizes():
    # T (x) g of so3-9 is V7 + V9 + V11: spins 3, 4, 5 on 27 dimensions
    mult = [0, 0, 0, 1, 1, 1]
    _check_weights(mult, [6, 6, 6, 4, 2], 27)
    with pytest.raises(CasimirError, match="weights of the first generator"):
        _check_weights(mult, [8, 6, 6, 4, 2], 27)
    with pytest.raises(CasimirError, match="weights of the first generator"):
        _check_weights(mult, [6, 6, 6, 4, 0], 27)
    with pytest.raises(CasimirError, match="do not fill dimension 29"):
        _check_weights(mult, [6, 6, 6, 4, 2], 29)
    with pytest.raises(CasimirError, match="do not fill dimension 27"):
        _check_weights([1, 0, 0, 1, 1, 1], [6, 6, 6, 4, 2], 27)


def test_casimir_ranks_c_only_on_the_zero_weight_block(monkeypatch):
    g = get_structure("so3-9").lie
    dec, calls = _recorded_casimir(monkeypatch, g, "t-lambda2")
    assert dec.dim == 324
    # one kernel on the whole space, of H: B_0, one vector per summand
    (_, ncols, zero), = calls["kernel"]
    assert ncols == 324 and len(zero) == dec.components == 28
    # C - lambda_j is ranked on B_0 for j = 0..11; the weight blocks are
    # counted on the factors alone: ker H and m = 1..4 on T = V9, ker H and
    # m = 1..7 on Lambda^2 T = V15 + V11 + V7 + V3
    assert calls["rank"] == [(28, 28)] * 12 + [(9, 9)] * 5 + [(36, 36)] * 8
    assert all(ncols != 324 for _, ncols in calls["rank"])
    # n(a) on Lambda^2 T is 4, 4, 3, 3, 2, 2, 1, 1: the sizes are their
    # sums over a + b = +-m with the weights of T
    (_, sizes, _), = calls["check"]
    assert sizes == [56, 52, 48, 40, 32, 24, 18, 12, 8, 4, 2]


def test_t_gperp_calibrates_and_counts_t_once(monkeypatch):
    g = get_structure("so3-9").lie
    calibrations = []

    def calibrate(g):
        calibrations.append(g)
        return real(g)

    real = rep._calibrate
    monkeypatch.setattr(rep, "_calibrate", calibrate)
    dec, calls = _recorded_casimir(monkeypatch, g, "t-gperp")
    assert (dec.dim, dec.components) == (297, 25)
    assert calibrations == [g]
    # t-lambda2 counts T and Lambda^2 T; t-g then ranks C on its B_0 of 3
    # vectors for j = 0..5 and counts only g = V3, reusing T's counts
    assert calls["rank"] == ([(28, 28)] * 12 + [(9, 9)] * 5 + [(36, 36)] * 8
                             + [(3, 3)] * 6 + [(3, 3)] * 2)
    assert [dim for _, _, dim in calls["check"]] == [324, 27]


def _whole_space_sizes(g, space, top):
    """dim ker(H^2 + s m^2) for m = 1..top, by ranks over every column of
    the tensor space's own first-generator operator H."""
    _, s = rep._calibrate(g)
    dim, ops = _space_operators(g, space)
    h2 = rep._sparse_square_sum(ops[:1], dim, range(dim))
    return [rep._kernel_dim_shift(h2, s_mul(s, s_quotient(m * m)), dim)
            for m in range(1, top + 1)]


@pytest.mark.parametrize("space", ["t-lambda2", "t-g"])
@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_factor_weight_counts_match_the_whole_space_ranks(algebra, space):
    g = ALGEBRAS[algebra]()
    _, s = rep._calibrate(g)
    factors = rep._factor_operators(g, space)
    counts = [rep._weight_counts(ops[0], dim, s) for _, dim, ops in factors]
    # each factor's counts fill it: n(0) + 2 sum_a n(a) = dim
    assert [2 * sum(n) - n[0] for n in counts] == [d for _, d, _ in factors]
    top = max(d for d, _ in casimir_decompose(g, space).parts) // 2 + 1
    sizes = rep._tensor_weight_sizes(counts, top)
    assert sizes == _whole_space_sizes(g, space, top)
    assert sizes[-1] == 0


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
                       match="^weights of the first generator do not fit "
                             "the scale of T$"):
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
    # so(3) on R^3 plus a trivial line: C is -2 on R^3 and 0 on the line
    g = LieRep("so3+1", 4, [rot(4, 3, 2), rot(4, 1, 3), rot(4, 2, 1)])
    with pytest.raises(CasimirError, match="not scalar"):
        casimir_decompose(g, "T")
