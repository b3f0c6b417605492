"""Stability of exterior forms via infinitesimal orbit ranks.

A p-form is stable when its gl(n)-orbit spans all of Lambda^p, and
E-stable for a subspace E when the restricted orbit spans Lambda^p E.
Both are rank computations on the matrix of elementary-matrix actions:
on a coordinate hyperplane its rows are those of the orbit matrix that
avoid the dropped index, elsewhere the orbit forms are restricted.
"""

from math import comb
from random import Random

from .scalar import Scalar, as_scalar
from .exterior import Form, Subspace, coords, lex_index, restrict
from .linalg import span_rank
from .rep import act_on_form, gl_basis, orbit_matrix

__all__ = [
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


def e_stable(a: Form, w: Subspace) -> bool:
    """Whether the orbit of a restricted to w spans Lambda^p w."""
    p = _homogeneous_degree(a)
    k = w.dim
    want = comb(k, p)
    if want == 0:
        return True
    rows = [coords(restrict(act_on_form(x, a), w), p) for x in gl_basis(a.n)]
    return span_rank(rows, want) == want


def sampled_hyperplanes(n):
    """Deterministic non-coordinate hyperplanes v^perp, as Subspaces."""
    rng = Random(SAMPLE_SEED)
    out = []
    while len(out) < SAMPLE_COUNT:
        v = [rng.randint(-3, 3) for _ in range(n)]
        if sum(1 for x in v if x) < 2:
            continue
        pivot = next(i for i, x in enumerate(v) if x)
        piv = as_scalar(v[pivot])
        basis = []
        for j in range(n):
            if j == pivot:
                continue
            vec = [Scalar() for _ in range(n)]
            vec[j] = as_scalar(1)
            if v[j]:
                vec[pivot] = -as_scalar(v[j]) / piv
            basis.append(vec)
        out.append(Subspace.from_vectors(n, basis))
    return out


def stability(a: Form, sampled=False) -> StabilityReport:
    """Orbit rank, stability, and E-stability on coordinate hyperplanes.

    With sampled=True the fixed set of rational non-coordinate hyperplanes
    is tested as well; the report then carries the aggregate verdict.
    """
    p = _homogeneous_degree(a)
    n = a.n
    orbit = orbit_matrix(a)
    full = comb(n, p)
    orbit_dim = span_rank(orbit, n * n)
    per = {}
    want = comb(n - 1, p)
    for i in range(1, n + 1):
        # restricting to e_i^perp keeps the coordinates e^K with i not in K
        sub = [row for K, row in zip(lex_index(n, p)[0], orbit) if i not in K]
        per[i] = (span_rank(sub, n * n) == want)
    sampled_ok = None
    if sampled:
        sampled_ok = all(e_stable(a, w) for w in sampled_hyperplanes(n))
    return StabilityReport(n, p, orbit_dim, full, orbit_dim == full,
                           per, sampled_ok)
