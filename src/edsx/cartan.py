"""Reduced polar equations and Cartan's test on coordinate flags.

Formally d(theta^i) = sum_j w_ij wedge theta^j with symbol coefficients
w_ij.  Contracting the differential of a degree-p generator by p vectors
of a coordinate subspace W leaves a linear functional in the w_ij; the
rank of all such functionals is c(W).  Cartan's test compares the
partial sums of c along a flag with the codimension of the integral space
Z_0.  The polar functionals are the rows of the generator's gl(n) orbit
matrix (edsx.rep.orbit_matrix) whose p-subset lies in W.  Their one owner
is edsx.stability.PolarTable, which keeps c(W) per index set: the
structure's Analysis holds the table of its generators, shared by every
flag test and flag search of the structure, and stable_flag_test builds
one for its bare form, as edsx.stability does (c(W) = C(dim W, p)).
"""

from math import comb

from .exterior import Form
from .catalog import StructureSpec
from .dga import analysis, extension
from .scalar import int_text
from .stability import PolarTable

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


def _check_flag(n, flag):
    flag = tuple(flag)
    if sorted(flag) != list(range(1, n + 1)):
        raise CartanError("flag must order the indices 1..%d, got (%s)"
                          % (n, ", ".join(map(int_text, flag))))
    return flag


def flag_test(s: StructureSpec, flag=None) -> PolarReport:
    """Cartan's test for the coordinate flag given by an insertion order."""
    flag = _check_flag(s.n, s.default_flag if flag is None else flag)
    a = analysis(s)
    c_values = [a.polar.count(flag[:k]) for k in range(s.n + 1)]
    # codim Z_0 = n^3 - dim Z_0 is the rank of the extension matrix, since
    # n*C(n,2) + n*C(n+1,2) = n^3
    return PolarReport(flag, c_values, a.extension().rank)


def stable_flag_test(a: Form, hyperplane_index) -> PolarReport:
    """Cartan's test for span{a} along the flag ending at e_i^perp.

    E_k is a-stable exactly when c(E_k) = C(k, p).  When every proper
    prefix is stable, codim Z must be C(n, p+1); a mismatch raises.
    """
    n = a.n
    p = a.degree
    if p is None or any(len(i) != p for i in a.terms):
        raise CartanError("stable flag test needs a homogeneous nonzero form")
    i = hyperplane_index
    if not 1 <= i <= n:
        raise CartanError("hyperplane index out of range")
    flag = tuple(j for j in range(1, n + 1) if j != i) + (i,)
    table = PolarTable(n, [a])
    c_values = [table.count(flag[:k]) for k in range(n + 1)]
    codim = extension(n, [a]).rank
    if (all(c_values[k] == comb(k, p) for k in range(n))
            and codim != comb(n, p + 1)):
        raise CartanError(
            "stable flag has codim %d, expected C(%d,%d)=%d"
            % (codim, n, p + 1, comb(n, p + 1)))
    return PolarReport(flag, c_values, codim)


def flag_search(s: StructureSpec) -> PolarReport:
    """Best coordinate flag by total polar count, via subset recursion.

    c(W) depends only on the underlying index set, so the maximal partial
    sum over insertion orders is a maximum over chains of subsets.  The
    counts come from the structure's table, so the chosen flag's report
    ranks nothing new.
    """
    n = s.n
    c_of = analysis(s).polar.count
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
                if big not in nxt or score > nxt[big]:
                    nxt[big] = score
                    parent[big] = (small, x)
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
