"""Restriction of invariant structures to coordinate subspaces.

The pullback p sends the invariant algebra of the ambient structure onto
an algebra on the subspace W.  An operator f descends to f_W exactly when
ker p stays inside ker p o f.  The integral space of f_W is computed on
the subspace with the same machinery used for the ambient structure, and
the report sets its dimension against the coordinate projection
gl(T) (x) T -> gl(W) (x) W of the ambient integral space.

Neither space needs to contain the other.  Compressing an ambient
solution discards the mixed terms that couple W to its complement, so
the compressed map need not solve the subspace system; conversely a
subspace solution extends to an ambient one over every subspace of an
ordinary flag, but can fail to extend when no such flag exists.  The
report therefore carries both dimensions and an exact test of whether
the projection covers the subspace solutions, and forces neither.
"""

from itertools import product
from math import comb

from ._kernel import ONE, s_sub
from .exterior import Form, Subspace, coords, lex_index, restrict
from .linalg import solve_affine, span_rank
from .rep import hom_dim
from .catalog import StructureSpec, DiffOpSpec, ParamForm
from .dga import analysis, z_spaces, _extension_system, _resolve_op

__all__ = [
    "RestrictionError",
    "RestrictionReport",
    "restrict_structure",
]


class RestrictionError(ValueError):
    pass


class RestrictionReport:
    """Outcome of restricting one operator to a coordinate subspace."""

    __slots__ = ("coords", "p_image_gens", "kerp_condition", "f_w",
                 "surjectivity_dims", "projection_onto",
                 "relatively_admissible", "extends_ok", "hypotheses_ok")

    def __init__(self, coords, p_image_gens, kerp_condition, f_w,
                 surjectivity_dims, projection_onto,
                 relatively_admissible, extends_ok):
        self.coords = tuple(coords)
        self.p_image_gens = p_image_gens
        self.kerp_condition = kerp_condition
        self.f_w = f_w
        self.surjectivity_dims = surjectivity_dims
        self.projection_onto = projection_onto
        self.relatively_admissible = relatively_admissible
        self.extends_ok = extends_ok
        self.hypotheses_ok = (kerp_condition and extends_ok
                              and relatively_admissible)

    @property
    def dims_match(self):
        _, proj, zw = self.surjectivity_dims
        if proj is None or zw is None:
            return None
        return proj == zw

    def to_json(self):
        e = "empty"
        fw = e
        if self.f_w is not None:
            fw = {g: str(pf.parts[None]) for g, pf in self.f_w.values.items()}
        return {
            "coords": list(self.coords),
            "p_image_gens": {g: str(v) for g, v in self.p_image_gens.items()},
            "kerp_condition": self.kerp_condition,
            "f_w": fw,
            "surjectivity_dims": [e if d is None else d
                                  for d in self.surjectivity_dims],
            "projection_onto": self.projection_onto,
            "dims_match": self.dims_match,
            "relatively_admissible": self.relatively_admissible,
            "extends_ok": self.extends_ok,
            "hypotheses_ok": self.hypotheses_ok,
        }


def _kerp_holds(closure, fvals, w):
    k = w.dim
    for p, idxs in sorted(closure.by_degree.items()):
        left = []
        aug = []
        for i in idxs:
            lrow = coords(restrict(closure.words[i][1], w), p)
            val = restrict(closure.induced_value(i, fvals), w)
            left.append(lrow)
            aug.append({**lrow, **coords(val, p + 1, comb(k, p))})
        if span_rank(left, comb(k, p)) != span_rank(
                aug, comb(k, p) + comb(k, p + 1)):
            return False
    return True


def _sym_kernel_units(n):
    """Sparse gl(n) x T vectors spanning the antisymmetrization kernel."""
    one = ONE
    out = []
    idx = range(1, n + 1)
    for i in idx:
        for u in idx:
            for v in idx:
                if u > v:
                    continue
                vec = {((i - 1) * n + (u - 1)) * n + (v - 1): one}
                if u != v:
                    vec[((i - 1) * n + (v - 1)) * n + (u - 1)] = one
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


def restrict_structure(s: StructureSpec, op, params=None,
                       w: Subspace = None) -> RestrictionReport:
    """Restriction report for an operator along a coordinate subspace.

    Defaults to the next-to-last subspace of the structure's flag.
    """
    n = s.n
    if w is None:
        w = Subspace.coordinate(n, sorted(s.default_flag[:n - 1]))
    if w.coords is None:
        raise RestrictionError("restriction needs a coordinate subspace")
    if w.n != n:
        raise RestrictionError("subspace of a different ambient space")
    kept = tuple(w.coords)
    k = len(kept)

    spec = _resolve_op(s, op)
    fvals = spec.instantiate(params)
    closure = analysis(s).closure

    p_gens = {}
    for gname, g in s.generators.items():
        img = restrict(g, w)
        if not img.is_zero():
            p_gens[gname] = img

    kerp = _kerp_holds(closure, fvals, w)

    f_w = None
    solw = None
    zw_dim = None
    if kerp:
        values = {}
        for gname in p_gens:
            val = restrict(fvals.get(gname, Form.zero(n)), w)
            values[gname] = ParamForm(k, {None: val})
        f_w = DiffOpSpec("%s|%s" % (spec.name, ",".join(map(str, kept))),
                         (), values)
        pairs = [(p_gens[g], f_w.values[g].parts[None]) for g in p_gens]
        mw, rhsw = _extension_system(k, pairs)
        solw = solve_affine(mw, hom_dim(k), rhsw)
        if not solw.is_empty:
            zw_dim = len(solw.basis) + k * (k * (k + 1) // 2)

    zr = z_spaces(s, op, params)
    z_dim = zr.z_dim
    proj_dim = None
    onto = None
    if z_dim is not None:
        local = {((i - 1) * n + (j - 1)) * n + (m - 1): t
                 for t, (i, j, m) in enumerate(product(kept, repeat=3))}
        directions = _sym_kernel_units(n)
        directions.extend(_hom_preimage(n, b) for b in zr.z_prime.basis)
        projected = [_project_glt(v, local) for v in directions]
        proj_dim = span_rank(projected, k ** 3)
        if zw_dim is not None:
            # does every subspace solution come from an ambient one: the
            # subspace directions and the particular gap would all lie in
            # the projected span
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

    rel = False
    if set(kept) == set(s.default_flag[:k]):
        from .cartan import flag_test
        rel = flag_test(s).ordinary

    return RestrictionReport(kept, p_gens, kerp, f_w,
                             (z_dim, proj_dim, zw_dim), onto, rel,
                             z_dim is not None)
