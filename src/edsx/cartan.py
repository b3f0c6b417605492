"""Reduced polar equations and Cartan's test on coordinate flags.

Formally d(theta^i) = sum_j w_ij wedge theta^j with symbol coefficients
w_ij.  Contracting the differential of a degree-p generator by p vectors
of a coordinate subspace W leaves a linear functional in the w_ij; the
rank of all such functionals is c(W).  Cartan's test compares the partial
sums of c along a flag with the codimension of the integral space Z_0.
"""

from math import comb

from ._kernel import s_add, s_sub
from .exterior import Form, Subspace, _sort_sign
from .linalg import span_rank
from .catalog import StructureSpec
from .dga import analysis, _extension_system
from .rep import hom_dim
from .stability import e_stable

__all__ = [
    "CartanError",
    "PolarReport",
    "flag_test",
    "stable_flag_test",
    "flag_search",
]


class CartanError(ValueError):
    pass


class PolarReport:
    """c(W_k) along one flag and the Cartan test verdict."""

    __slots__ = ("flag", "c_values", "codim_z0", "sum_c_partial",
                 "ordinary", "relatively_admissible_positions")

    def __init__(self, flag, c_values, codim_z0):
        n = len(flag)
        self.flag = tuple(flag)
        self.c_values = list(c_values)
        self.codim_z0 = codim_z0
        self.sum_c_partial = sum(self.c_values[:n])
        if self.sum_c_partial > codim_z0:
            raise CartanError(
                "polar count %d exceeds codim %d: flag %r"
                % (self.sum_c_partial, codim_z0, self.flag))
        self.ordinary = (self.sum_c_partial == codim_z0)
        self.relatively_admissible_positions = (
            tuple(range(n + 1)) if self.ordinary else ())

    def to_json(self):
        return {
            "flag": list(self.flag),
            "c_values": list(self.c_values),
            "codim_z0": self.codim_z0,
            "sum_c_partial": self.sum_c_partial,
            "ordinary": self.ordinary,
            "relatively_admissible_positions":
                list(self.relatively_admissible_positions),
        }


def _polar_srows(a: Form, prefix):
    """Reduced polar functionals of one form over the w_ij coordinates.

    One sparse row per p-subset of the prefix indices; entries indexed by
    (i-1)*n + (j-1) for the symbol w_ij.
    """
    n = a.n
    if a.degree is None:
        return []
    pset = set(prefix)
    rows = {}
    for idx, c in a.terms.items():
        c = c.c
        for t, it in enumerate(idx):
            rest = idx[:t] + idx[t + 1:]
            if not all(r in pset for r in rest):
                continue
            # Leibniz gives (-1)^t theta^{<t} (w_ij theta^j) theta^{>t};
            # moving the one-form w_ij out front cancels that sign, so
            # only the sorting parity of the theta factors remains.
            for j in pset - set(rest):
                key, sign = _sort_sign(idx[:t] + (j,) + idx[t + 1:])
                if key is None:
                    continue
                row = rows.get(key)
                if row is None:
                    row = rows[key] = {}
                col = (it - 1) * n + (j - 1)
                cur = row.get(col)
                row[col] = s_add(cur, c) if sign > 0 else s_sub(cur, c)
    return [{k: v for k, v in rows[key].items() if v} for key in sorted(rows)]


def _structure_rows(s: StructureSpec, prefix):
    rows = []
    for g in s.generators.values():
        rows.extend(_polar_srows(g, prefix))
    return rows


def _check_flag(n, flag):
    flag = tuple(flag)
    if sorted(flag) != list(range(1, n + 1)):
        raise CartanError("flag must order the indices 1..%d, got %r"
                          % (n, flag))
    return flag


def flag_test(s: StructureSpec, flag=None) -> PolarReport:
    """Cartan's test for the coordinate flag given by an insertion order."""
    n = s.n
    flag = _check_flag(n, s.default_flag if flag is None else flag)
    c_values = []
    for k in range(n + 1):
        c_values.append(span_rank(_structure_rows(s, flag[:k]), n * n))
    # codim Z_0 = n^3 - dim Z_0 is the rank of the extension matrix, since
    # n*C(n,2) + n*C(n+1,2) = n^3
    codim = analysis(s).extension().rank
    return PolarReport(flag, c_values, codim)


def stable_flag_test(a: Form, hyperplane_index) -> PolarReport:
    """Cartan's test for span{a} along the flag ending at e_i^perp.

    Wherever the prefix E_k leaves a E_k-stable the count c(E_k) must be
    the binomial C(k, p); a mismatch raises.  When every proper prefix is
    stable the codimension of Z is pinned to C(n, p+1) as well.
    """
    n = a.n
    p = a.degree
    if p is None or any(len(i) != p for i in a.terms):
        raise CartanError("stable flag test needs a homogeneous nonzero form")
    i = hyperplane_index
    if not 1 <= i <= n:
        raise CartanError("hyperplane index out of range")
    flag = tuple(j for j in range(1, n + 1) if j != i) + (i,)
    c_values = []
    stable_prefixes = []
    for k in range(n + 1):
        prefix = flag[:k]
        c_values.append(span_rank(_polar_srows(a, prefix), n * n))
        st = e_stable(a, Subspace.coordinate(n, prefix))
        stable_prefixes.append(st)
        if st and c_values[k] != comb(k, p):
            raise CartanError(
                "stable prefix %r has c=%d, expected C(%d,%d)=%d"
                % (prefix, c_values[k], k, p, comb(k, p)))
    m, _ = _extension_system(n, [(a, Form.zero(n))])
    codim = span_rank(m, hom_dim(n))
    if all(stable_prefixes[:n]) and codim != comb(n, p + 1):
        raise CartanError(
            "stable flag has codim %d, expected C(%d,%d)=%d"
            % (codim, n, p + 1, comb(n, p + 1)))
    return PolarReport(flag, c_values, codim)


def flag_search(s: StructureSpec) -> PolarReport:
    """Best coordinate flag by total polar count, via subset recursion.

    c(W) depends only on the underlying index set, so the maximal partial
    sum over insertion orders is a maximum over chains of subsets.
    """
    n = s.n
    cdim = {}

    def c_of(subset):
        if subset not in cdim:
            cdim[subset] = span_rank(
                _structure_rows(s, sorted(subset)), n * n)
        return cdim[subset]

    best = {frozenset(): 0}
    parent = {}
    layer = [frozenset()]
    for size in range(1, n):
        nxt = {}
        for small in layer:
            for x in range(1, n + 1):
                if x in small:
                    continue
                big = small | {x}
                score = best[small] + c_of(big)
                key = frozenset(big)
                if key not in nxt or score > nxt[key]:
                    nxt[key] = score
                    parent[key] = (small, x)
        best.update(nxt)
        layer = sorted(nxt, key=lambda f: tuple(sorted(f)))
    top = max(layer, key=lambda f: (best[f], tuple(sorted(f))))
    order = []
    cur = top
    while cur:
        prev, x = parent[cur]
        order.append(x)
        cur = prev
    order.reverse()
    missing = next(j for j in range(1, n + 1) if j not in top)
    return flag_test(s, tuple(order) + (missing,))
