import ast
import json
import random
from itertools import product
from math import comb
from pathlib import Path

import pytest

import edsx
from edsx import dga, exterior
from edsx._kernel import ONE, s_add, s_mul, s_neg, s_sub
from edsx.catalog import DiffOpSpec, get_structure
from edsx.dga import (Analysis, analysis, extension, extension_rhs,
                      operator_values)
from edsx.exterior import (Form, Subspace, _sort_sign, lex_index, parse_form,
                           restrict, wedge)
from edsx.linalg import Elimination, solve_affine, span_rank
from edsx.papercheck import RESTRICTION_BATTERY
from edsx.rep import hom_dim
from edsx.restriction import (RestrictionError, _covers, _slice,
                              restrict_structure)
from edsx.scalar import Scalar

from test_derivation import unit_matrix_reference
from test_dga import CATALOG, _no_extension_toy, rand_form


def test_default_hyperplane_is_sorted():
    rep = restrict_structure(get_structure("su-even:3"), "zero")
    assert rep.coords == (1, 2, 3, 4, 5)


def test_restricted_generators_of_even_structure():
    rep = restrict_structure(get_structure("su-even:3"), "zero")
    assert rep.p_image_gens == {
        "F": parse_form("e[1,2]+e[3,4]", 5),
        "omega-plus": parse_form("e[1,3,5]-e[2,4,5]", 5),
        "omega-minus": parse_form("e[1,4,5]+e[2,3,5]", 5),
    }
    assert rep.kerp_condition
    assert all(v.is_zero() for v in rep.f_w.values())
    assert rep.hypotheses_ok


def test_restriction_of_evolution_operator():
    rep = restrict_structure(get_structure("su-odd:2"), "B",
                             {"lambda": 1, "mu": 1})
    fw = rep.f_w
    pg = rep.p_image_gens
    assert fw["alpha"] == pg["F"]
    assert fw["F"].is_zero()
    assert fw["omega-plus"] == wedge(pg["alpha"], pg["omega-minus"])
    assert fw["omega-minus"] == -wedge(pg["alpha"], pg["omega-plus"])


def test_rejects_non_coordinate_subspace():
    s = get_structure("su-even:2")
    diag = Subspace(4, [[Scalar.of(1)] * 4])
    with pytest.raises(RestrictionError):
        restrict_structure(s, "zero", None, diag)
    wrong_n = Subspace.coordinate(5, [1, 2, 3])
    with pytest.raises(RestrictionError):
        restrict_structure(s, "zero", None, wrong_n)


def test_projection_covers_subspace_solutions_when_admissible():
    rep = restrict_structure(get_structure("su-even:2"), "zero")
    assert rep.surjectivity_dims == (52, 27, 24)
    assert rep.projection_onto is True
    assert rep.relatively_admissible
    assert rep.extends_ok
    assert rep.dims_match is False


def test_dims_match_on_the_plane_pair_example():
    rep = restrict_structure(get_structure("example-712"), "zero")
    assert rep.surjectivity_dims == (309, 196, 196)
    assert rep.dims_match is True
    assert rep.projection_onto is True


def test_empty_ambient_solutions_reported():
    rep = restrict_structure(get_structure("so3-9"), "gamma-dual",
                             {"lambda": 1})
    assert not rep.extends_ok
    assert rep.surjectivity_dims == (None, None, 428)
    assert rep.projection_onto is None
    assert rep.dims_match is None
    assert not rep.hypotheses_ok


def test_report_json_is_serializable():
    rep = restrict_structure(get_structure("su-even:2"), "zero")
    j = rep.to_json()
    assert json.loads(json.dumps(j, sort_keys=True)) == j
    assert j["surjectivity_dims"] == [52, 27, 24]
    assert j["kerp_condition"] is True


def test_subspace_that_kills_every_generator():
    # rho has no term inside span{e_1, e_2}: the subspace system is empty
    rep = restrict_structure(get_structure("psu3"), "zero", None,
                             Subspace.coordinate(8, [1, 2]))
    out = rep.to_json()
    assert out["p_image_gens"] == {} and out["f_w"] == {}
    assert out["surjectivity_dims"] == [442, 8, 8]
    assert out["extends_ok"] and out["hypotheses_ok"]


# The reference below compares the spaces in gl(T) (x) T, k^3 columns: the
# antisymmetrization kernel T (x) S^2 T spelled out as units, one preimage
# of each Hom(T, Lambda^2 T) vector, and the coordinate projection onto
# gl(W) (x) W.  restrict_structure works in Hom(W, Lambda^2 W) instead.

def _sym_kernel_units(n):
    """Sparse gl(n) x T vectors spanning the antisymmetrization kernel."""
    out = []
    idx = range(1, n + 1)
    for i in idx:
        for u in idx:
            for v in idx:
                if u > v:
                    continue
                vec = {((i - 1) * n + (u - 1)) * n + (v - 1): ONE}
                if u != v:
                    vec[((i - 1) * n + (v - 1)) * n + (u - 1)] = ONE
                out.append(vec)
    return out


def _hom_preimage(n, hom):
    """One gl(n) x T preimage of sparse Hom(T, Lambda^2 T) coordinates."""
    pairs = lex_index(n, 2)[0]
    vec = {}
    for key, c in hom.items():
        i, t = divmod(key, len(pairs))
        u, v = pairs[t]
        vec[(i * n + (v - 1)) * n + (u - 1)] = c
    return vec


def _project_glt(vec, local):
    """The sparse gl(W) x W part of a sparse gl(n) x T vector, through the
    map local from ambient to subspace positions."""
    return {local[x]: c for x, c in vec.items() if x in local}


_AMBIENT = {}


def _ambient_solution(s, op, params):
    """solve_affine of the structure's extension system E x = b, kept per
    query: many cases restrict the same one."""
    key = (s.name, op, repr(params))
    if key not in _AMBIENT:
        _AMBIENT[key] = solve_affine(
            analysis(s).extension()._rows, hom_dim(s.n),
            extension_rhs(s.generators, operator_values(s, op, params)))
    return _AMBIENT[key]


def _reference(s, op, params, rep):
    """(dim Z', projection dim, dim Z'_W) and the onto verdict of rep, in
    gl(T) (x) T coordinates."""
    n, kept = s.n, rep.coords
    k = len(kept)
    solw = None
    zw_dim = None
    if rep.f_w is not None:
        m = unit_matrix_reference(list(rep.p_image_gens.values()), k)
        rhs = extension_rhs(rep.p_image_gens, rep.f_w)
        solw = solve_affine(m, hom_dim(k), rhs)
        if not solw.is_empty:
            zw_dim = len(solw.basis) + k * (k * (k + 1) // 2)
    sol = _ambient_solution(s, op, params)
    if sol.is_empty:
        return (None, None, zw_dim), None
    local = {((i - 1) * n + (j - 1)) * n + (m - 1): t
             for t, (i, j, m) in enumerate(product(kept, repeat=3))}
    directions = _sym_kernel_units(n)
    directions.extend(_hom_preimage(n, b) for b in sol.basis)
    projected = [_project_glt(v, local) for v in directions]
    proj_dim = span_rank(projected, k ** 3)
    onto = None
    if zw_dim is not None:
        extra = [_hom_preimage(k, b) for b in solw.basis]
        gap = _hom_preimage(k, solw.particular)
        amb = _project_glt(_hom_preimage(n, sol.particular), local)
        for x, c in amb.items():
            d = s_sub(gap.get(x), c)
            if d:
                gap[x] = d
            else:
                gap.pop(x, None)
        extra.append(gap)
        onto = span_rank(projected + extra, k ** 3) == proj_dim
    z_dim = len(sol.basis) + n * (n * (n + 1) // 2)
    return (z_dim, proj_dim, zw_dim), onto


def _hyperplanes(name, n):
    return [(name, "zero", None, [c for c in range(1, n + 1) if c != d])
            for d in range(1, n + 1)]


ORACLE_CASES = (
    [(name, op, params, None)
     for name, op, params, *_ in RESTRICTION_BATTERY]
    + _hyperplanes("psu3", 8) + _hyperplanes("su-odd:3", 7)
    + _hyperplanes("so3-9", 9)
    # drops 1-4 are the only catalog restrictions where the projection is
    # larger than Z'_W and still misses some of it
    + _hyperplanes("example-712", 7)
    + [("su-even:3", "zero", None, (2, 1, 4, 3, 5)),
       ("su-even:3", "zero", None, (5, 3, 1, 2, 4)),
       ("su-even:3", "zero", None, (3, 1, 2)),
       ("g2", "zero", None, (7, 1, 3, 5, 2, 4)),
       ("g2", "zero", None, (7, 6, 5, 4)),
       ("psu3", "zero", None, (8, 1, 2, 3, 4, 5)),
       ("su-even:3", "zero", None, (6, 5, 4, 3, 2, 1)),
       ("su-even:3", "zero", None, ()),
       ("su-even:3", "zero", None, (4,)),
       ("psu3", "zero", None, (1, 2)),
       ("so3-9", "zero", None, (9, 1, 3, 2)),
       ("su-odd:2", "B", {"lambda": 1, "mu": 1}, (3, 1, 2, 5)),
       ("su-odd:3", "B", {"lambda": 1, "mu": "r2"}, (2, 1, 4, 3, 5, 7))])


@pytest.mark.parametrize(
    "name,op,params,kept", ORACLE_CASES,
    ids=["%s %s %s" % (c[0], c[1], "default" if c[3] is None
                       else ",".join(map(str, c[3])) or "empty")
         for c in ORACLE_CASES])
def test_hom_projection_matches_the_gl_tensor_reference(name, op, params,
                                                        kept):
    s = get_structure(name)
    if kept is None:
        kept = sorted(s.default_flag[:s.n - 1])
    rep = restrict_structure(s, op, params, Subspace.coordinate(s.n, kept))
    assert rep.coords == tuple(kept)
    assert (rep.surjectivity_dims, rep.projection_onto) \
        == _reference(s, op, params, rep)


# (structure, kept): the reordered, partial and empty coordinate orders of
# n = 4..8, then every catalog structure's default hyperplane
SLICE_CASES = ([("su-even:3", (2, 1, 4, 3, 5)), ("g2", (7, 6, 5, 4)),
                ("su-odd:3", (7, 1, 3, 5, 2, 4)), ("psu3", (1, 2)),
                ("su-odd:2", (3,)), ("su-even:2", ())]
               + [(name, None) for name in CATALOG])


@pytest.mark.parametrize(
    "name,kept", SLICE_CASES,
    ids=["%s %s" % (name, "default" if kept is None
                    else ",".join(map(str, kept)) or "empty")
         for name, kept in SLICE_CASES])
def test_extension_slice_is_the_subspace_system(name, kept):
    # the rows of E with their subset K in W, cut to the columns of
    # Hom(W, Lambda^2 W), are the extension rows of the restricted
    # generators, and b on them is their right-hand side, entry by entry
    # up to the sign that reorders K and the sign that reorders each pair
    s = get_structure(name)
    n = s.n
    if kept is None:
        kept = tuple(sorted(s.default_flag[:n - 1]))
    k = len(kept)
    w = Subspace.coordinate(n, kept)
    rng = random.Random(name + str(kept))
    fvals = {g: rand_form(rng, n, f.degree + 1) if f.degree < n
             else Form.zero(n) for g, f in s.generators.items()}
    on_w, rows_w, b_w = _slice(s, kept, extension_rhs(s.generators, fvals))
    p_gens = {g: img for g, f in s.generators.items()
              if not (img := restrict(f, w)).is_zero()}
    ext_w = extension(k, p_gens.values())._rows
    rhs_w = extension_rhs(p_gens, {g: restrict(fvals[g], w)
                                   for g in p_gens})
    pos, wpairs = lex_index(n, 2)[1], lex_index(k, 2)[0]
    col = {}
    for a, i in enumerate(kept):
        for t, (u, v) in enumerate(wpairs):
            pair, sign = _sort_sign((kept[u - 1], kept[v - 1]))
            col[a * len(wpairs) + t] = ((i - 1) * len(pos) + pos[pair], sign)
    assert sorted(c for c, _ in col.values()) == sorted(on_w)
    local = {i: a + 1 for a, i in enumerate(kept)}
    want_rows, want_b, got_b, at = [], {}, {}, 0
    for g, f in s.generators.items():
        p = f.degree + 1
        for K in lex_index(n, p)[0]:
            if not set(K) <= set(kept):
                continue
            t = len(want_rows)
            if g not in p_gens:
                want_rows.append({})
                continue
            L, sign = _sort_sign(tuple(local[i] for i in K))
            r = at + lex_index(k, p)[1][L]
            want_rows.append({col[j][0]: c if sign * col[j][1] > 0
                              else s_neg(c) for j, c in ext_w[r].items()})
            if r in rhs_w:
                want_b[t] = rhs_w[r] if sign > 0 else s_neg(rhs_w[r])
            if t in b_w:
                got_b[t] = b_w[t]
        if g in p_gens:
            at += comb(k, p)
    assert at == len(ext_w) and len(want_rows) == len(rows_w)
    assert rows_w == want_rows
    assert got_b == want_b


def _entry(rng):
    """A nonzero rational or r2 multiple of -2..2."""
    return (1, {rng.choice((0, 0, 1)): rng.choice((-2, -1, 1, 2))})


def _apply(rows, x):
    """The sparse vector of the rows applied to the sparse vector x."""
    out = {}
    for i, row in enumerate(rows):
        v = None
        for j, c in row.items():
            if j in x:
                v = s_add(v, s_mul(c, x[j]))
        if v:
            out[i] = v
    return out


def _coverage_cases(seed, count):
    """(E, b, E_W, b_W, ncols, cols) with both systems consistent: E over
    ncols columns, E_W over len(cols) columns, P x the entries of x at
    cols, in that order.  b_W is E_W applied to P of an ambient solution
    or to a random point; E may have more rows than columns, so that
    P(ker E) is small."""
    rng = random.Random(seed)
    for _ in range(count):
        ncols = rng.randint(1, 6)
        cols = rng.sample(range(ncols), rng.randint(0, ncols))
        density = rng.choice((0.3, 0.6))
        e = [{j: _entry(rng) for j in range(ncols) if rng.random() < density}
             for _ in range(rng.randint(0, ncols + 1))]
        ew = [{a: _entry(rng) for a in range(len(cols))
               if rng.random() < density}
              for _ in range(rng.randint(0, len(cols) + 1))]
        x = {j: _entry(rng) for j in range(ncols) if rng.random() < 0.7}
        b = _apply(e, x)
        if rng.random() < 0.5:
            for v in solve_affine(e, ncols, b).basis:
                if rng.random() < 0.5:
                    x = {j: c for j in set(x) | set(v)
                         if (c := s_add(x.get(j), v.get(j)))}
            y = {a: x[j] for a, j in enumerate(cols) if j in x}
        else:
            y = {a: _entry(rng) for a in range(len(cols))
                 if rng.random() < 0.7}
        yield e, b, ew, _apply(ew, y), ncols, cols


def test_stacked_coverage_matches_containment_on_random_systems():
    # Z'_W lies in P(Z'_T) exactly when its directions lie in P(ker E)
    # and it meets P(Z'_T); the cases reach all four combinations
    seen = {}
    for e, b, ew, b_w, ncols, cols in _coverage_cases(5151, 400):
        m = len(cols)
        z_t = solve_affine(e, ncols, b)
        z_w = solve_affine(ew, m, b_w)
        proj = [{a: v[j] for a, j in enumerate(cols) if j in v}
                for v in z_t.basis]
        offset = {a: c for a, j in enumerate(cols)
                  if (c := s_sub(z_w.particular.get(a),
                                 z_t.particular.get(j)))}
        dim_proj = span_rank(proj, m)
        both = span_rank(proj + z_w.basis, m)
        inside = both == dim_proj
        meets = span_rank(proj + z_w.basis + [offset], m) == both
        gap = dim_proj - len(z_w.basis)
        lifted = [{cols[a]: c for a, c in row.items()} for row in ew]
        assert _covers(Elimination(e, ncols), b, lifted, b_w, gap) \
            == (inside and meets)
        seen[inside, meets] = seen.get((inside, meets), 0) + 1
    assert len(seen) == 4 and min(seen.values()) >= 10, seen


def test_restriction_instantiates_once_and_skips_z_doubleprime(monkeypatch):
    calls = []
    instantiate = DiffOpSpec.instantiate

    def counted(self, assignment):
        calls.append(self.name)
        return instantiate(self, assignment)

    def refuse(self):
        raise AssertionError("dim Z'' is not part of the report")

    monkeypatch.setattr(DiffOpSpec, "instantiate", counted)
    monkeypatch.setattr(Analysis, "lie_ranks", refuse)
    for name, op, params in (("su-odd:3", "B", {"lambda": 1, "mu": 1}),
                             ("so3-9", "zero", None),
                             ("so3-9", "gamma-dual", {"lambda": 1})):
        calls.clear()
        restrict_structure(get_structure(name), op, params)
        assert calls == [op]


@pytest.mark.parametrize("name,op,params", [
    ("psu3", "zero", None), ("su-odd:3", "B", {"lambda": 1, "mu": 1}),
    ("so3-9", "gamma-dual", {"lambda": 1})])
def test_a_warm_restriction_applies_no_derivation(monkeypatch, name, op,
                                                  params):
    # the subspace system is a slice of the structure's extension matrix:
    # once that is built, a restriction to another hyperplane builds none
    s = get_structure(name)
    restrict_structure(s, op, params, Subspace.hyperplane(s.n, 1))
    calls = []
    images = exterior.derivation_images

    def counted(*args, **kwargs):
        calls.append(args[0])
        return images(*args, **kwargs)

    monkeypatch.setattr(exterior, "derivation_images", counted)
    monkeypatch.setattr(dga, "derivation_images", counted)
    rep = restrict_structure(s, op, params, Subspace.hyperplane(s.n, 2))
    assert rep.f_w is not None and rep.surjectivity_dims[2] is not None
    assert calls == []


def test_only_the_analysis_and_the_flag_test_build_extensions():
    # a structure's extension matrix has one owner, its Analysis, and the
    # stable flag test of a bare form builds its own; restriction slices
    # the structure's and reaches for no private name
    callers, private = set(), []

    def visit(node, module, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = node.name if scope is None else scope + "." + node.name
        if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "extension"
                or (getattr(node.func, "attr", None) == "extension"
                    and getattr(node.func.value, "id", None) == "dga")):
            callers.add((module, scope))
        if module == "restriction" and isinstance(node, ast.ImportFrom):
            private.extend(a.name for a in node.names
                           if a.name.startswith("_"))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(Path(edsx.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert callers == {("dga", "Analysis.extension"),
                       ("cartan", "stable_flag_test")}
    assert private == []


@pytest.mark.parametrize("name,drop", [("su-odd:2", 5), ("su-odd:3", 7)])
def test_false_kerp_condition_leaves_f_w_undefined(name, drop):
    # dropping the last coordinate kills alpha = e[n] but not B(alpha) = F
    s = get_structure(name)
    rep = restrict_structure(s, "B", {"lambda": 1, "mu": 1},
                             Subspace.hyperplane(s.n, drop))
    assert rep.kerp_condition is False
    assert rep.f_w is None
    assert rep.surjectivity_dims[2] is None
    assert rep.projection_onto is None
    assert rep.hypotheses_ok is False
    assert rep.to_json()["f_w"] == "empty"


def test_a_consistent_slice_skips_the_relation_test(monkeypatch):
    # a solution of the slice system is a derivation D_W whose values
    # d_{D_W}(p word) respect every relation, so Closure.respects runs
    # only on a slice with no solution
    calls = []
    respects = dga.Closure.respects

    def counted(self, values, w=None):
        calls.append(respects(self, values, w))
        return calls[-1]

    monkeypatch.setattr(dga.Closure, "respects", counted)
    for name, op, params, drop in (
            ("psu3", "zero", None, 8),
            ("so3-9", "zero", None, 1),
            ("su-odd:2", "B", {"lambda": 1, "mu": 1}, 1),
            ("su-odd:3", "B", {"lambda": "1+r3", "mu": 0}, 3)):
        s = get_structure(name)
        rep = restrict_structure(s, op, params,
                                 Subspace.hyperplane(s.n, drop))
        assert rep.kerp_condition and rep.surjectivity_dims[2] is not None
    assert calls == []
    rep = restrict_structure(get_structure("su-odd:2"), "B",
                             {"lambda": 1, "mu": 1}, Subspace.hyperplane(5, 5))
    assert rep.kerp_condition is False and calls == [False]
    # the toy's f respects its relations but extends to no derivation, so
    # on the whole space the slice, all of E, has no solution
    rep = restrict_structure(_no_extension_toy(), "f", None,
                             Subspace.coordinate(6, range(1, 7)))
    assert rep.kerp_condition and rep.surjectivity_dims[2] is None
    assert calls == [False, True]
