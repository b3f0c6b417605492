"""Restriction of invariant structures to coordinate subspaces.

The pullback p sends the invariant algebra of the ambient structure onto
an algebra on the subspace W.  An operator f descends to f_W exactly when
ker p stays inside ker p o f: the relation test of edsx.dga.Closure.respects
on the words and their Leibniz values pulled back to W.  The integral space
of f_W is solved on the subspace with the extension system of edsx.dga,
and the report sets its dimension against the coordinate projection of
the ambient integral space.

Integral elements live in gl(T) (x) T, and the antisymmetrization onto
Hom(T, Lambda^2 T) has kernel T (x) S^2 T, which the coordinate projection
P maps onto W (x) S^2 W, the kernel on W.  Since delta_W o P = P_Hom o
delta_T, the projection is compared entirely in Hom(W, Lambda^2 W)
coordinates, and T (x) S^2 T enters only as its dimension k.k(k+1)/2.

Neither space needs to contain the other.  Compressing an ambient
solution discards the mixed terms that couple W to its complement, so
the compressed map need not solve the subspace system; conversely a
subspace solution extends to an ambient one over every subspace of an
ordinary flag, but can fail to extend when no such flag exists.  The
report therefore carries both dimensions and an exact test of whether
the projection covers the subspace solutions, and forces neither: the
projected directions and the gap between the two particular solutions,
together with the kernel of the subspace system, must span no more than
the projected directions alone.
"""

from ._kernel import ONE, s_neg
from .exterior import Form, Subspace, lex_index, restrict, _sort_sign
from .linalg import combine, span_rank
from .rep import hom_dim, sym_dim
from .catalog import StructureSpec
from .dga import analysis, extension, extension_rhs, operator_values

__all__ = [
    "RestrictionError",
    "RestrictionReport",
    "restrict_structure",
]


class RestrictionError(ValueError):
    pass


class RestrictionReport:
    """Outcome of restricting one operator to a coordinate subspace.

    f_w maps each generator with a nonzero restriction to the Form f_W
    gives it, or is None when the ker p condition fails.
    """

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
            fw = {g: str(v) for g, v in self.f_w.items()}
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


def _project_hom(vec, n, kept):
    """The Hom(W, Lambda^2 W) part of sparse Hom(T, Lambda^2 T) coordinates.

    An entry (i, {u, v}) is kept when i, u and v lie in W and is moved to
    W's positions of them; it changes sign when W's order reverses u, v.
    """
    pairs = lex_index(n, 2)[0]
    wpos = lex_index(len(kept), 2)[1]
    at = {c: j for j, c in enumerate(kept, 1)}
    out = {}
    for key, c in vec.items():
        i, t = divmod(key, len(pairs))
        u, v = pairs[t]
        if i + 1 in at and u in at and v in at:
            K, sign = _sort_sign((at[u], at[v]))
            out[(at[i + 1] - 1) * len(wpos) + wpos[K]] = (
                c if sign > 0 else s_neg(c))
    return out


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

    fvals = operator_values(s, op, params)
    a = analysis(s)

    p_gens = {}
    for gname, g in s.generators.items():
        img = restrict(g, w)
        if not img.is_zero():
            p_gens[gname] = img

    kerp = a.closure.respects(a.closure.induced_values(fvals), w)

    f_w = zw_dim = None
    if kerp:
        f_w = {g: restrict(fvals.get(g, Form.zero(n)), w) for g in p_gens}
        ext_w = extension(k, p_gens.values())
        solw = ext_w.solve(extension_rhs(p_gens, f_w))
        if not solw.is_empty:
            zw_dim = solw.dim + sym_dim(k)

    sol = a.extension().solve(extension_rhs(s.generators, fvals))
    z_dim = None
    proj_dim = None
    onto = None
    if not sol.is_empty:
        z_dim = sol.dim + sym_dim(n)
        projected = [_project_hom(b, n, kept) for b in sol.basis]
        rank = span_rank(projected, hom_dim(k))
        proj_dim = sym_dim(k) + rank
        if zw_dim is not None:
            # does every subspace solution come from an ambient one: the
            # subspace directions (the kernel of the subspace system) and
            # the particular gap would all lie in the projected span
            gap = combine([solw.particular,
                           _project_hom(sol.particular, n, kept)],
                          {0: ONE, 1: s_neg(ONE)})
            onto = ext_w.rank_with_kernel(projected + [gap]) == rank

    rel = False
    if set(kept) == set(s.default_flag[:k]):
        from .cartan import flag_test
        rel = flag_test(s).ordinary

    return RestrictionReport(kept, p_gens, kerp, f_w,
                             (z_dim, proj_dim, zw_dim), onto, rel,
                             z_dim is not None)
