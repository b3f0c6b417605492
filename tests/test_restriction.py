import json
import random
from itertools import product

import pytest

from edsx._kernel import ONE, s_add, s_mul, s_neg, s_sub
from edsx.catalog import DiffOpSpec, get_structure
from edsx.dga import Analysis, extension_rhs, z_spaces
from edsx.exterior import Subspace, lex_index, parse_form, restrict, wedge
from edsx.linalg import Elimination, solve_affine, span_rank
from edsx.papercheck import RESTRICTION_BATTERY
from edsx.rep import HomMap, hom_dim
from edsx.restriction import (RestrictionError, _covers, _lift,
                              restrict_structure)
from edsx.scalar import Scalar

from test_derivation import unit_matrix_reference


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
    zr = z_spaces(s, op, params)
    if zr.z_dim is None:
        return (None, None, zw_dim), None
    local = {((i - 1) * n + (j - 1)) * n + (m - 1): t
             for t, (i, j, m) in enumerate(product(kept, repeat=3))}
    directions = _sym_kernel_units(n)
    directions.extend(_hom_preimage(n, b) for b in zr.z_prime.basis)
    projected = [_project_glt(v, local) for v in directions]
    proj_dim = span_rank(projected, k ** 3)
    onto = None
    if zw_dim is not None:
        extra = [_hom_preimage(k, b) for b in solw.basis]
        gap = _hom_preimage(k, solw.particular)
        amb = _project_glt(_hom_preimage(n, zr.z_prime.particular), local)
        for x, c in amb.items():
            d = s_sub(gap.get(x), c)
            if d:
                gap[x] = d
            else:
                gap.pop(x, None)
        extra.append(gap)
        onto = span_rank(projected + extra, k ** 3) == proj_dim
    return (zr.z_dim, proj_dim, zw_dim), onto


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


@pytest.mark.parametrize("n,kept", [(6, (2, 1, 4, 3, 5)), (7, (7, 6, 5, 4)),
                                    (7, (7, 1, 3, 5, 2, 4)), (8, (1, 2)),
                                    (5, (3,)), (4, ())])
def test_hom_projection_restricts_the_images(n, kept):
    # P(D) sends e^j of W to the restriction of D(e^kept[j]) to W, and P
    # is read through its transpose: W column j is the ambient entry
    # that lift puts the unit of j on, times its sign
    rng = random.Random(n * 100 + len(kept))
    vec = {t: Scalar.of(rng.randrange(-3, 4)).c
           for t in rng.sample(range(hom_dim(n)), hom_dim(n) // 2)}
    vec = {t: c for t, c in vec.items() if c}
    images = HomMap.from_coords(n, vec).images
    w = Subspace.coordinate(n, kept)
    want = HomMap(len(kept), [restrict(images[c - 1], w) for c in kept])
    projected, cols = {}, set()
    for j in range(hom_dim(len(kept))):
        (col, sign), = _lift({j: ONE}, n, kept).items()
        assert col not in cols and sign in (ONE, s_neg(ONE))
        cols.add(col)
        if col in vec:
            projected[j] = vec[col] if sign == ONE else s_neg(vec[col])
    assert projected == want.coords()


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
