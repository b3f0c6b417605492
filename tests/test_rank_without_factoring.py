"""Elimination's ranks without the factorization, against the factored ones.

A rank asked before any solve is one rank-only elimination of the kept
rows, with the columns renumbered by how many rows hold them; it must be
the pivot count of the leftmost forward phase that particular() of a
nonzero right-hand side factors.  rank_with_kernel(g) is dim ker m plus
the rank of the vectors m g, summed from the kept rows; it must equal
the formula it replaced, which summed the vectors F g through the
forward pivot rows F and is kept here as the reference.  Neither may
build the operation list, which only particular() replays.
"""

import random
from types import SimpleNamespace

import pytest

from edsx import linalg
from edsx._kernel import ONE, eliminate, s_submul
from edsx.cartan import flag_test
from edsx.catalog import get_structure
from edsx.dga import extension, lie_tensor_rows, z_spaces
from edsx.linalg import Elimination, span_rank
from edsx.rep import hom_dim
from edsx.restriction import _slice

from test_kernel_switch import _random_graded_cases
from test_rref_oracle import CATALOG, _matrix, _snapshot

# every mask: the entries of _matrix take up to two terms over all four
# primes, so the rows are ungraded and reach the certificate mod P; the g
# rows take rationals, r2 and r3 only, since the multi-term images of
# four-prime g rows on the large graded entries take seconds to rank
ALL_PRIMES = SimpleNamespace(masks=range(16))
SOME_PRIMES = SimpleNamespace(masks=(0, 1, 2))


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


def _ranks_both_ways(rows, ncols, g_rows):
    """(rank, rank_with_kernel) asked before and after a factorization,
    which must agree; a nonzero right-hand side forces the factorization."""
    before = Elimination(rows, ncols)
    first = (before.rank, before.rank_with_kernel(g_rows))
    after = Elimination(rows, ncols)
    after.particular({0: ONE})
    assert after._ops is not None
    assert (after.rank, after.rank_with_kernel(g_rows)) == first
    return first


def _unit_rows(s):
    """The unit rows of the columns off Hom(W, Lambda^2 W), W the default
    hyperplane: the columns whose rank restrict_structure once read
    through rank_with_kernel."""
    on_w = _slice(s, s.default_flag[:s.n - 1], {})[0]
    return [{c: ONE} for c in range(hom_dim(s.n)) if c not in on_w]


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_ranks_without_the_factorization(name):
    s = get_structure(name)
    rows = extension(s.n, s.generators.values())._rows
    ncols = hom_dim(s.n)
    before = _snapshot(rows)
    for g_rows in (lie_tensor_rows(s.lie, s.n), _unit_rows(s)):
        rank, with_kernel = _ranks_both_ways(rows, ncols, g_rows)
        assert rank == _factored_rank(rows, ncols)
        assert with_kernel == _rank_with_kernel_through_f(rows, ncols,
                                                          g_rows)
    # the kept rows are read, never reduced
    assert _snapshot(rows) == before


def _random_cases():
    """Graded and ungraded rows, some rank-deficient, some with empty
    rows, each with random sparse g rows over the same columns."""
    rng = random.Random(7741)
    cases = list(_random_graded_cases())
    for t in range(40):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rows = _matrix(rng, ALL_PRIMES, nrows, ncols)
        if t % 4 == 0:
            rows.insert(rng.randrange(len(rows) + 1), {})
        cases.append((rows, ncols))
    for rows, ncols in cases:
        g_rows = _matrix(rng, SOME_PRIMES, rng.randint(0, 6), ncols)
        yield rows, ncols, g_rows


def test_random_ranks_without_the_factorization():
    deficient = empty = 0
    for rows, ncols, g_rows in _random_cases():
        rank, with_kernel = _ranks_both_ways(rows, ncols, g_rows)
        assert rank == _factored_rank(rows, ncols)
        assert with_kernel == _rank_with_kernel_through_f(rows, ncols,
                                                          g_rows)
        deficient += rank < min(len(rows), ncols)
        empty += {} in rows
    assert deficient > 20 and empty > 10


def test_an_empty_matrix_has_rank_zero():
    elim = Elimination([{}, {}], 3)
    assert elim.rank == 0
    assert elim.rank_with_kernel([{0: ONE}, {2: ONE}]) == 3
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
    # the extension rank, and the rank of m on g (x) T
    assert calls and not any(calls)
    assert s._analysis.extension()._ops is None
