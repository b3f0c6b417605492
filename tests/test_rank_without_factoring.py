"""Elimination's ranks without the factorization, against the factored ones.

A rank asked before any solve is one rank-only elimination of the kept
rows, with the columns renumbered by how many rows hold them; it must be
the pivot count of the leftmost forward phase that particular() of a
nonzero right-hand side factors, and it may not build the operation
list, which only particular() replays.  The rank of g (x) T together
with the extension kernel, which Analysis.lie_ranks reads off the
structure's lie_images, must equal dim ker m plus the rank of the
vectors F g summed through the forward pivot rows F, kept here as the
reference.
"""

import random
from types import SimpleNamespace

import pytest

from edsx import linalg
from edsx._kernel import ONE, eliminate, s_submul
from edsx.cartan import flag_test
from edsx.catalog import get_structure
from edsx.dga import analysis, extension, lie_tensor_rows, z_spaces
from edsx.linalg import Elimination, span_rank
from edsx.rep import hom_dim

from test_kernel_switch import _random_graded_cases
from test_rref_oracle import CATALOG, _matrix, _snapshot

# every mask: the entries of _matrix take up to two terms over all four
# primes, so the rows are ungraded and reach the certificate mod P
ALL_PRIMES = SimpleNamespace(masks=range(16))


def _factored_rank(rows, ncols):
    """The pivot count of the leftmost forward phase."""
    return len(eliminate([dict(r) for r in rows], ncols, reduced=False)[0])


def _rank_with_kernel_through_f(rows, ncols, g_rows):
    """dim ker m + rank(F G), F g summed through a column index of the
    forward pivot rows F."""
    pivots, prows = eliminate([dict(r) for r in rows], ncols, reduced=False)
    column = {}
    for t, (j, prow) in enumerate(zip(pivots, prows)):
        column.setdefault(j, []).append((t, ONE))
        for k, c in prow.items():
            column.setdefault(k, []).append((t, c))
    images = []
    for g in g_rows:
        out = {}
        for k, gk in g.items():
            for t, c in column.get(k, ()):
                out[t] = s_submul(out.get(t), c, gk)
        images.append({t: v for t, v in out.items() if v})
    return ncols - len(pivots) + span_rank(images, len(pivots))


def _ranks_both_ways(rows, ncols):
    """The rank asked before and after a factorization, which must agree;
    a nonzero right-hand side forces the factorization."""
    first = Elimination(rows, ncols).rank
    after = Elimination(rows, ncols)
    after.particular({0: ONE})
    assert after._ops is not None
    assert after.rank == first
    return first


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_ranks_without_the_factorization(name):
    s = get_structure(name)
    rows = extension(s.n, s.generators.values())._rows
    ncols = hom_dim(s.n)
    before = _snapshot(rows)
    assert _ranks_both_ways(rows, ncols) == _factored_rank(rows, ncols)
    assert analysis(s).lie_ranks()[1] == _rank_with_kernel_through_f(
        rows, ncols, lie_tensor_rows(s.lie, s.n))
    # the kept rows are read, never reduced
    assert _snapshot(rows) == before


def _random_cases():
    """Graded and ungraded rows, some rank-deficient, some with empty
    rows."""
    rng = random.Random(7741)
    cases = list(_random_graded_cases())
    for t in range(40):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rows = _matrix(rng, ALL_PRIMES, nrows, ncols)
        if t % 4 == 0:
            rows.insert(rng.randrange(len(rows) + 1), {})
        cases.append((rows, ncols))
    return cases


def test_random_ranks_without_the_factorization():
    deficient = empty = 0
    for rows, ncols in _random_cases():
        rank = _ranks_both_ways(rows, ncols)
        assert rank == _factored_rank(rows, ncols)
        deficient += rank < min(len(rows), ncols)
        empty += {} in rows
    assert deficient > 20 and empty > 10


def test_an_empty_matrix_has_rank_zero():
    assert Elimination([{}, {}], 3).rank == 0
    assert Elimination([], 0).rank == 0


def test_the_zero_operator_builds_no_operation_list(monkeypatch):
    s = get_structure("so3-9")
    # a new Analysis for this test; the cached one comes back afterwards
    monkeypatch.setattr(s, "_analysis", None)
    calls = []

    def counted(rows, ncols, reduced=True, ops=None, certify=None):
        calls.append(ops is not None)
        return eliminate(rows, ncols, reduced, ops, certify)

    monkeypatch.setattr(linalg, "eliminate", counted)
    z = z_spaces(s, "zero")
    report = flag_test(s)
    assert report.codim_z0 == s.n ** 3 - z.z_dim
    # the extension rank, and the rank of g (x) T; so3-9's generators
    # are invariant, so m takes no product with g (x) T
    assert calls and not any(calls)
    assert s._analysis.extension()._ops is None
