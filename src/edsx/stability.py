"""Stability of exterior forms via infinitesimal orbit ranks.

A p-form a is stable when its gl(n)-orbit spans all of Lambda^p, and
E-stable for a subspace W when the restricted orbit spans Lambda^p W.
For a coordinate W the rows of the orbit matrix with p-subset in W are
Cartan's polar rows, so W is E-stable exactly when the polar count of a
on W is C(dim W, p).  E-stability is GL(n)-invariant: any other W is
e_1..e_k once a is pulled back along a basis of R^n that begins with W's.
"""

from fractions import Fraction
from math import comb
from random import Random

from .exterior import Form, Subspace, lex_index, restrict
from .linalg import span_rank
from .rep import orbit_matrix

__all__ = [
    "PolarTable",
    "StabilityReport",
    "stability",
    "e_stable",
    "sampled_hyperplanes",
]

SAMPLE_SEED = 712418
SAMPLE_COUNT = 20


class StabilityReport:
    """Orbit rank of a form and its hyperplane restrictions."""

    __slots__ = ("n", "degree", "orbit_dim", "full_dim", "stable",
                 "per_hyperplane", "sampled_ok")

    def __init__(self, n, degree, orbit_dim, full_dim, stable,
                 per_hyperplane, sampled_ok=None):
        self.n = n
        self.degree = degree
        self.orbit_dim = orbit_dim
        self.full_dim = full_dim
        self.stable = stable
        self.per_hyperplane = per_hyperplane
        self.sampled_ok = sampled_ok

    def to_json(self):
        out = {
            "n": self.n,
            "degree": self.degree,
            "orbit_dim": self.orbit_dim,
            "full_dim": self.full_dim,
            "stable": self.stable,
            "per_hyperplane": {str(i): v
                               for i, v in sorted(self.per_hyperplane.items())},
        }
        if self.sampled_ok is not None:
            out["sampled"] = self.sampled_ok
        return out


def _homogeneous_degree(a: Form):
    p = a.degree
    if p is None:
        raise ValueError("stability of the zero form is undefined")
    if any(len(i) != p for i in a.terms):
        raise ValueError("form is not homogeneous")
    return p


class PolarTable:
    """c(W) of coordinate subspaces W of R^n for forms, ranked once per W.

    Its rows, built on the first count, are each form's nonzero orbit rows
    keyed by p-subset K, the polar functionals up to sign and column order
    (Leibniz gives d(e^I) the terms e^{I, i -> j} w_ij); W keeps K in W.
    """

    __slots__ = ("n", "forms", "_rows", "_counts")

    def __init__(self, n, forms):
        self.n = n
        self.forms = tuple(forms)
        self._rows = None
        self._counts = {}

    def count(self, indices):
        """c(W) for the coordinate subspace W spanned by the indices."""
        key = frozenset(indices)
        if key not in self._counts:
            if self._rows is None:
                self._rows = [(K, row) for a in self.forms for K, row
                              in zip(lex_index(a.n, a.degree)[0],
                                     orbit_matrix(a)) if row]
            self._counts[key] = span_rank(
                [row for K, row in self._rows if key.issuperset(K)],
                self.n * self.n)
        return self._counts[key]


def e_stable(a: Form, w: Subspace) -> bool:
    """Whether the orbit of a restricted to w spans Lambda^p w."""
    p = _homogeneous_degree(a)
    if w.n != a.n:
        raise ValueError("subspace of a different ambient space")
    if w.coords is None:
        return e_stable(restrict(a, w.completed()),
                        Subspace.coordinate(a.n, range(1, w.dim + 1)))
    return PolarTable(a.n, [a]).count(w.coords) == comb(w.dim, p)


def sampled_hyperplanes(n):
    """Deterministic non-coordinate hyperplanes v^perp, as Subspaces."""
    if n < 2:
        return []  # R^1 has no non-coordinate hyperplane
    rng = Random(SAMPLE_SEED)
    out = []
    while len(out) < SAMPLE_COUNT:
        v = [rng.randint(-3, 3) for _ in range(n)]
        if sum(1 for x in v if x) < 2:
            continue
        pivot = next(i for i, x in enumerate(v) if x)
        # the basis e_j - (v_j / v_pivot) e_pivot, j != pivot
        out.append(Subspace.from_vectors(n, [
            [Fraction(-v[j], v[pivot]) if i == pivot else int(i == j)
             for i in range(n)] for j in range(n) if j != pivot]))
    return out


def stability(a: Form, sampled=False) -> StabilityReport:
    """Orbit rank, stability, and E-stability on coordinate hyperplanes.

    With sampled=True the fixed set of rational non-coordinate hyperplanes
    is tested as well; the report then carries the aggregate verdict.
    """
    p = _homogeneous_degree(a)
    n = a.n
    table = PolarTable(n, [a])
    full = comb(n, p)
    orbit_dim = table.count(range(1, n + 1))
    per = {i: table.count([j for j in range(1, n + 1) if j != i])
           == comb(n - 1, p) for i in range(1, n + 1)}
    sampled_ok = (all(e_stable(a, w) for w in sampled_hyperplanes(n))
                  if sampled else None)
    return StabilityReport(n, p, orbit_dim, full, orbit_dim == full,
                           per, sampled_ok)
