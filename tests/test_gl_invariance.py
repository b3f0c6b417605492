"""The paper's numbers do not depend on the coframe: a GL(n, Q) oracle.

Each structure is pulled back along a sparse rational g, at most two
off-diagonal entries per column: every generator a becomes g*a, through
restrict along the columns of g, and every Lie basis matrix X becomes
h X h^-1 for h = g^T, which acts on g*a as X acts on a; these are not
skew, so the pulled-back algebra is a LieRep with skew=False.  Its
invariance check runs the derivation rule on dense general tables, where
cells add up, and must pass.

The invariants are GL(n)-invariant: codim Z_0, the Z-space dimensions of
the zero operator, the strong-admissibility verdict and each generator's
orbit dimension.  Cartan's c_k along the default flag are invariant only
when g preserves that flag, that is when g is triangular in its order.
"""

import random
from fractions import Fraction

import pytest
from sympy import Matrix

from edsx.cartan import flag_test
from edsx.catalog import StructureSpec, get_structure
from edsx.dga import DgaError, strong_admissibility, z_spaces
from edsx.exterior import Subspace, restrict
from edsx.rep import LieRep, mat_from
from edsx.scalar import Scalar
from edsx.stability import stability

# how many columns of g carry off-diagonal entries: so3-9's radical
# coefficients mix into multi-term ones and its extension rank (200 of
# 324) is not full, so no certificate mod P answers it; with two columns
# each so3-9 case takes about 1 s, and a third would add seconds
COLUMNS = {"psu3": 4, "su-odd:3": 4, "so3-9": 2}
ENTRIES = [Fraction(q) for q in (1, -1, 2, -3, "1/2", "-2/3")]


def keeps_flag(g, flag):
    """Whether g keeps column flag[k] on the rows flag[:k+1]."""
    return all(not g[i - 1][j - 1]
               for k, j in enumerate(flag) for i in flag[k + 1:])


def sparse_g(rng, n, flag, triangular, columns):
    """An invertible rational n x n matrix with a diagonal and at most two
    off-diagonal entries in each of the given number of columns; it keeps
    the flag exactly when triangular is true."""
    while True:
        g = [[Fraction(0)] * n for _ in range(n)]
        for j in flag:
            g[j - 1][j - 1] = rng.choice(ENTRIES)
        for j in rng.sample(flag[1:], columns):
            rows = (flag[:flag.index(j)] if triangular
                    else [i for i in flag if i != j])
            for i in rng.sample(rows, min(2, len(rows))):
                g[i - 1][j - 1] = rng.choice(ENTRIES)
        if keeps_flag(g, flag) == triangular and Matrix(g).rank() == n:
            return g


def pulled_back(s, g):
    """s with every generator pulled back along g, and the Lie basis
    conjugated to act on the pullbacks."""
    n = s.n
    w = Subspace.from_vectors(n, [[g[i][j] for i in range(n)]
                                  for j in range(n)])
    # the coframe components of g*a are g^T times a's, so X becomes
    # h X h^-1 for h = g^T
    h = Matrix(g).T
    hs, hinv = ([[Scalar.of(Fraction(int(m[i, j].p), int(m[i, j].q)))
                  for j in range(n)] for i in range(n)] for m in (h, h.inv()))
    basis = []
    for x in s.lie.basis:
        xh = [[sum((Scalar(c) * hinv[k][j] for k, c in x[i].items()),
                   Scalar()) for j in range(n)] for i in range(n)]
        basis.append(mat_from(
            [[sum((hs[i][k] * xh[k][j] for k in range(n)), Scalar())
              for j in range(n)] for i in range(n)]))
    lie = LieRep(s.lie.name + " pulled back", n, basis, skew=False)
    gens = {name: restrict(a, w) for name, a in s.generators.items()}
    return StructureSpec(s.name + " pulled back", n, lie, gens,
                         s.default_flag, {"zero": s.operators["zero"]},
                         check_invariance=True)


def invariants_of(s):
    z = z_spaces(s, "zero")
    try:
        strong = strong_admissibility(s)[0]
    except DgaError as exc:
        # psu3's one generator spans no invariant 5-form
        strong = str(exc)
    return {"z": (z.z_prime_dim, z.z_dim, z.z_doubleprime_dim),
            "codim": flag_test(s).codim_z0, "strong": strong,
            "orbits": {name: stability(a).orbit_dim
                       for name, a in s.generators.items()}}


@pytest.mark.parametrize("name", COLUMNS)
@pytest.mark.parametrize("triangular", [True, False])
def test_pullback_keeps_the_invariants(name, triangular):
    s = get_structure(name)
    rng = random.Random("%s %s" % (name, triangular))
    t = pulled_back(s, sparse_g(rng, s.n, s.default_flag, triangular,
                                COLUMNS[name]))
    assert invariants_of(t) == invariants_of(s)
    if triangular:
        assert flag_test(t).c_values == flag_test(s).c_values
