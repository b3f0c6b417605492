"""Restriction of invariant structures to coordinate subspaces.

The pullback p sends the invariant algebra of the ambient structure onto
an algebra on the subspace W.  An operator f descends to f_W exactly when
ker p stays inside ker p o f: the relation test of edsx.dga.Closure.respects
on the words and their Leibniz values pulled back to W.  The integral space
of f_W is read off the structure's own extension system E x = b of
edsx.dga, and the report sets its dimension against the coordinate
projection of the ambient integral space.

Integral elements live in gl(T) (x) T, and the antisymmetrization onto
Hom(T, Lambda^2 T) has kernel T (x) S^2 T, which the coordinate projection
P maps onto W (x) S^2 W, the kernel on W.  Since delta_W o P = P_Hom o
delta_T, the projection is compared entirely in Hom(W, Lambda^2 W)
coordinates, and T (x) S^2 T enters only as its dimension k.k(k+1)/2.

The subspace system is a slice of E.  Let S be the columns of
Hom(T, Lambda^2 T) that send e^i, i in W, to a unit 2-form of W: unit
(i - 1) C(n, 2) + t with i and the t-th pair in W.  Such a D kills the
rest of the coframe, so it commutes with the pullback: p(D g) = D_W(p g),
D_W its unit of Hom(W, Lambda^2 W) up to the sign that sorts the pair.
So the rows of E whose subset K (edsx.dga.extension_row_masks) lies in W,
cut to S, are the rows of E_W P up to the sign that sorts K, and b on
them is b_W up to the same signs: a generator that p kills leaves rows
that vanish on S, and the ker p condition makes b vanish there too.
Signs of rows and columns move no rank and no consistency.

A solution of E_W P y = b_W is a derivation D_W with d_{D_W}(p g) =
p(f g) for every generator g, so by the Leibniz rule every word's
pulled-back value is d_{D_W} of the pulled-back word, linear in it: a
consistent slice proves the ker p condition, and Closure.respects runs
only on a slice with no solution.

Neither space needs to contain the other.  Compressing an ambient
solution discards the mixed terms that couple W to its complement, so
it need not solve the subspace system; a subspace solution extends to
an ambient one over every subspace of an ordinary flag, but can fail to
when no such flag exists.  The report carries both dimensions and an
exact test of whether the projection covers the subspace solutions.  Both
are ranks of the ambient system E x = b, of rank r.  For U_S the unit
rows of the columns of S, rank [E; U_S] = |S| + r', r' the rank of E
with the columns of S dropped, and P(ker E) has dimension
rank [E; U_S] - r, so proj_dim = sym_dim(k) + |S| - r + r'.  The rows of
E_W P lie in the span of U_S, so for X the solutions of
[E; E_W P] x = [b; b_W], P(X) = P(Z'_T) cap Z'_W and, X not empty,
dim P(X) = rank [E; U_S] - rank [E; E_W P].  Hence Z'_W lies in P(Z'_T)
exactly when the stacked system is consistent and
rank [E; E_W P] - r = proj_dim - zw_dim.
"""

from .exterior import Form, Subspace, lex_masks, restrict
from .rep import hom_dim, sym_dim
from .cartan import flag_test
from .catalog import StructureSpec
from .dga import analysis, extension_rhs, extension_row_masks, operator_values
from .linalg import Elimination, span_rank

__all__ = ["RestrictionError", "RestrictionReport", "restrict_structure"]


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


def _slice(s, kept, b):
    """(S, the rows of E_W P, b_W) for W spanned by the kept coordinates:
    the columns S of Hom(W, Lambda^2 W), then the rows of the structure's
    extension matrix and the entries of b whose subset lies in W, the rows
    cut to S and b_W keyed by slice row (see the module docstring)."""
    n, wm = s.n, sum(1 << i for i in kept)
    pairs = lex_masks(n, 2)
    on_w = {(i - 1) * len(pairs) + t for i in kept
            for t, m in enumerate(pairs) if not m & ~wm}
    rows = analysis(s).extension()._rows
    in_w = [r for r, m in enumerate(extension_row_masks(
        n, s.generators.values())) if not m & ~wm]
    return (on_w, [{j: c for j, c in rows[r].items() if j in on_w}
                   for r in in_w],
            {t: b[r] for t, r in enumerate(in_w) if r in b})


def _covers(ext, b, rows_w, b_w, gap):
    """Whether Z'_W lies in P(Z'_T), by the stacked system of the module
    docstring: ext solves E x = b, rows_w are the rows of E_W P and gap is
    proj_dim - zw_dim.  Solved before it is ranked, it is eliminated once."""
    stacked = Elimination(ext._rows + rows_w, ext.ncols)
    rhs = {**b, **{ext.nrows + i: x for i, x in b_w.items()}}
    return (stacked.particular(rhs) is not None
            and stacked.rank - ext.rank == gap)


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

    p_gens = {name: img for name, g in s.generators.items()
              if not (img := restrict(g, w)).is_zero()}

    ext = a.extension()
    b = extension_rhs(s.generators, fvals)
    on_w, rows_w, b_w = _slice(s, kept, b)
    ext_w = Elimination(rows_w, ext.ncols)
    f_w = zw_dim = None
    if ext_w.particular(b_w) is not None:
        zw_dim = hom_dim(k) - ext_w.rank + sym_dim(k)
    kerp = (zw_dim is not None
            or a.closure.respects(a.closure.induced_values(fvals), w))
    if kerp:
        f_w = {g: restrict(fvals.get(g, Form.zero(n)), w) for g in p_gens}

    z_dim = proj_dim = onto = None
    if ext.particular(b) is not None:
        z_dim = hom_dim(n) - ext.rank + sym_dim(n)
        off_w = [{j: c for j, c in r.items() if j not in on_w}
                 for r in ext._rows]
        proj_dim = (sym_dim(k) + len(on_w) - ext.rank
                    + span_rank(off_w, ext.ncols))
        if zw_dim is not None:
            onto = _covers(ext, b, rows_w, b_w, proj_dim - zw_dim)

    rel = set(kept) == set(s.default_flag[:k]) and flag_test(s).ordinary

    return RestrictionReport(kept, p_gens, kerp, f_w,
                             (z_dim, proj_dim, zw_dim), onto, rel,
                             z_dim is not None)
