"""The integer loop of eliminate() against its scalar loop.

Once its row updates pass SWITCH * nnz + 64, eliminate() tests the rows
that are not yet pivot rows for a radical grading and, when they have
one, finishes the forward phase on integers.  Each case here runs three
ways, never switching, switching at the first pivot column and
switching midway, and every way must return the same pivots, the same
forward or reduced rows (values and key order) and the same row
operations (target order, and inv is ONE exactly where the scalar loop
has it).
"""

import math
import random
from fractions import Fraction

import pytest

from edsx import _kernel, catalog
from edsx._kernel import DIVISORS, ONE, eliminate, s_quotient
from edsx.cartan import flag_test
from edsx.catalog import get_structure
from edsx.dga import check_operator, extension, z_spaces
from edsx.exterior import Subspace
from edsx.linalg import Elimination, kernel_basis, span_rank
from edsx.rep import casimir_decompose, hom_dim
from edsx.restriction import restrict_structure
from edsx.scalar import Scalar
from edsx.stability import stability

from test_rref_oracle import CATALOG, _snapshot

NEVER = 10 ** 9
AT_ONCE = -10 ** 9


@pytest.fixture
def switches(monkeypatch):
    """The first pivot column of each switch to the integer loop."""
    columns = []
    graded = _kernel._forward_graded

    def counted(srows, holding, j0, *args):
        columns.append(j0)
        return graded(srows, holding, j0, *args)

    monkeypatch.setattr(_kernel, "_forward_graded", counted)
    return columns


def _shape(s):
    """A scalar with the key order of its numerators."""
    return s[0], tuple(s[1].items())


def _run(rows, ncols, reduced):
    """eliminate() on copies of rows, as exactly comparable data."""
    ops = []
    pivots, prows = eliminate([dict(r) for r in rows], ncols, reduced, ops)
    return (pivots,
            [[(k, _shape(v)) for k, v in prow.items()] for prow in prows],
            [(p, _shape(inv), inv is ONE,
              tuple((i, _shape(c)) for i, c in targets))
             for p, inv, targets in ops])


def _updates(monkeypatch, rows, ncols):
    """The row updates of the scalar loop: one s_submul call each."""
    calls = []
    submul = _kernel.s_submul

    def counted(a, c, b):
        calls.append(1)
        return submul(a, c, b)

    monkeypatch.setattr(_kernel, "SWITCH", NEVER)
    monkeypatch.setattr(_kernel, "s_submul", counted)
    eliminate([dict(r) for r in rows], ncols, reduced=False)
    monkeypatch.setattr(_kernel, "s_submul", submul)
    return len(calls)


def _three_ways(monkeypatch, switches, rows, ncols):
    """Check the three ways agree; returns the switch columns of the
    forced ways (at once, midway) for reduced=False."""
    nnz = sum(len(r) for r in rows)
    half = _updates(monkeypatch, rows, ncols) / 2
    forced = []
    for reduced in (False, True):
        monkeypatch.setattr(_kernel, "SWITCH", NEVER)
        want = _run(rows, ncols, reduced)
        assert switches == []
        for switch in (AT_ONCE, (half - 64) / max(nnz, 1)):
            monkeypatch.setattr(_kernel, "SWITCH", switch)
            assert _run(rows, ncols, reduced) == want
            if not reduced:
                forced.append(switches[-1] if switches else None)
            switches.clear()
    monkeypatch.setattr(_kernel, "SWITCH", NEVER)
    return forced


def _extension(name):
    s = get_structure(name)
    return extension(s.n, s.generators.values())._rows, hom_dim(s.n)


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_extension_matrices_agree_across_the_switch(
        monkeypatch, switches, name):
    rows, ncols = _extension(name)
    at_once, midway = _three_ways(monkeypatch, switches, rows, ncols)
    # every catalog extension matrix is graded
    first = min(j for r in rows for j in r)
    assert at_once == first
    if name == "so3-9":
        # the one matrix the default SWITCH moves to the integer loop
        assert midway > first


def _term(mask, q):
    """The kernel scalar q * sqrt(DIVISORS[mask]) of a nonzero rational q."""
    return q.denominator, {mask: q.numerator}


def _graded(rng, nrows, ncols, density=0.4, big=False):
    """Random rows q * sqrt(D[r_i ^ c_k]) and their row masks."""
    rmask = [rng.randrange(16) for _ in range(nrows)]
    cmask = [rng.randrange(16) for _ in range(ncols)]
    top = 10 ** 12 if big else 7
    rows = []
    for i in range(nrows):
        row = {}
        for k in range(ncols):
            if rng.random() < density:
                q = Fraction(rng.choice((-1, 1)) * rng.randrange(1, top),
                             rng.randrange(1, top))
                row[k] = _term(rmask[i] ^ cmask[k], q)
        rows.append(row)
    return rows, rmask


def _plant(rng, rows, rmask):
    """Append a row dependent on two rows of one row mask, scaled by a
    radical, so the rows stay graded and the rank does not grow."""
    by_mask = {}
    for i, r in enumerate(rmask):
        by_mask.setdefault(r, []).append(i)
    pairs = [v for v in by_mask.values() if len(v) > 1]
    if not pairs:
        return
    i, k = rng.sample(rng.choice(pairs), 2)
    x = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
    y = Fraction(-rng.randrange(1, 9), rng.randrange(1, 9))
    m = rng.randrange(16)
    row = {}
    for j in sorted(set(rows[i]) | set(rows[k])):
        acc = {}
        for src, w in ((rows[i], x), (rows[k], y)):
            if j in src:
                den, nums = src[j]
                (mask, num), = nums.items()
                acc[mask] = acc.get(mask, 0) + w * Fraction(num, den)
        (mask, q), = acc.items()
        if q:
            # sqrt(D[m]) * q sqrt(D[mask]) = q D[m & mask] sqrt(D[m ^ mask])
            row[j] = _term(m ^ mask, q * DIVISORS[m & mask])
    rows.append(row)


def _random_graded_cases():
    rng = random.Random(7731)
    for t in range(40):
        nrows, ncols = rng.randint(3, 14), rng.randint(3, 14)
        rows, rmask = _graded(rng, nrows, ncols,
                              density=rng.choice((0.15, 0.3, 0.6)),
                              big=t % 4 == 3)
        for _ in range(t % 3):
            _plant(rng, rows, rmask)
        if t % 5 == 0:
            rows.append({})
        yield rows, ncols


def test_random_graded_matrices_agree_across_the_switch(monkeypatch,
                                                        switches):
    deficient = taken = midway_taken = 0
    for rows, ncols in _random_graded_cases():
        at_once, midway = _three_ways(monkeypatch, switches, rows, ncols)
        taken += at_once is not None
        midway_taken += midway is not None and midway > at_once
        deficient += span_rank(rows, ncols) < len(rows)
    assert taken == 40 and midway_taken > 25 and deficient > 10


def test_ungraded_matrices_stay_on_the_scalar_loop(monkeypatch, switches):
    tested = []
    grading = _kernel._grading

    def recorded(srows, holding, j0):
        tested.append(grading(srows, holding, j0))
        return tested[-1]

    monkeypatch.setattr(_kernel, "_grading", recorded)
    rng = random.Random(7732)
    rows, _ = _graded(rng, 8, 8, density=0.6)
    # a block on columns 8 and 9 that no other row holds, so it is still
    # there when the switch is tested midway: one entry of two terms
    two = (2, {0: 1, 5: -6})
    multi = rows + [{8: two, 9: ONE}, {8: ONE, 9: ONE}]
    # and single terms whose masks admit no grading: r0 ^ c8 = r0 ^ c9 =
    # r1 ^ c8 = 0 forces r1 ^ c9 = 0
    root2 = (1, {1: 2})
    odd = rows + [{8: ONE, 9: ONE}, {8: ONE, 9: root2}]
    for case in (multi, odd):
        at_once, midway = _three_ways(monkeypatch, switches, case, 10)
        assert at_once is None and midway is None
    # each of the 2 cases is tested at once and midway, reduced or not
    assert len(tested) == 8 and tested == [None] * 8


def test_callers_rows_are_unchanged_by_the_integer_loop(monkeypatch,
                                                        switches):
    rng = random.Random(7733)
    rows, rmask = _graded(rng, 12, 10, density=0.5)
    _plant(rng, rows, rmask)
    before = _snapshot(rows)
    monkeypatch.setattr(_kernel, "SWITCH", AT_ONCE)
    span_rank(rows, 10)
    elim = Elimination([dict(r) for r in rows], 10)
    assert elim.rank == span_rank(rows, 10)
    elim.particular({0: ONE})
    kernel_basis(rows, 10)
    # elim.rank is a rank-only elimination and a particular() of a nonzero
    # right-hand side factors
    assert len(switches) == 5
    assert _snapshot(rows) == before


def test_integer_rows_stay_within_the_hadamard_bound(monkeypatch, switches):
    # every integer row is primitive, a divisor of a row of minors of the
    # input, so no entry outgrows the Hadamard bound; without the content
    # division the entries double in length at every step
    rng = random.Random(7734)
    rows = [[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)]
    bound = 1
    for row in rows:
        bound *= math.isqrt(sum(x * x for x in row)) + 1
    seen = []
    entry = _kernel._graded_entry

    def recorded(n, d, mask):
        seen.append(max(abs(n), abs(d)))
        return entry(n, d, mask)

    monkeypatch.setattr(_kernel, "_graded_entry", recorded)
    monkeypatch.setattr(_kernel, "SWITCH", AT_ONCE)
    srows = [{k: s_quotient(x) for k, x in enumerate(row) if x}
             for row in rows]
    pivots, _ = eliminate(srows, 12, reduced=False)
    assert switches == [0] and len(pivots) == 12
    assert seen and max(seen) <= bound


def _field_rank_rows():
    """A 6 x 6 radical matrix shaped like the field workload's ranks: a
    rational plus one radical term per entry, one entry in seven zero."""
    rng = random.Random(7735)
    primes = (2, 3, 5)
    rows = []
    for i in range(6):
        row = []
        for j in range(6):
            x = Scalar.of(0)
            if (3 * i + 5 * j) % 7:
                x = Scalar.of(Fraction(rng.randint(-9, 9), rng.randint(1, 8)))
                x = x + Scalar.of(rng.randint(1, 3)) * Scalar.sqrt(
                    primes[(i + 2 * j) % 3])
            row.append(x)
        rows.append(row)
    return rows


def test_the_switch_fires_only_on_the_so3_9_extension_matrix(monkeypatch,
                                                             switches):
    monkeypatch.setattr(catalog, "_CACHE", {})
    z_spaces(get_structure("so3-9"), "zero")
    assert len(switches) == 1
    psu3 = get_structure("psu3")
    flag_test(psu3)
    restrict_structure(psu3, "zero", None, Subspace.hyperplane(psu3.n, 8))
    check_operator(get_structure("su-odd:3"), "A",
                   {"lambda": Scalar.parse("1 + r2"),
                    "mu": Scalar.parse("-r3")})
    span_rank([{j: x.c for j, x in enumerate(row) if x}
               for row in _field_rank_rows()], 6)
    assert len(switches) == 1


def test_casimir_and_stability_switch_only_rank_only_eliminations(
        monkeypatch):
    # the rest of the radical workload: the Casimir decomposition ranks
    # only so3-9's 9 x 9 T and never switches, and 5 of the polar ranks
    # of stability over 81 columns switch, every one keeping no pivot rows
    fired = []
    graded = _kernel._forward_graded

    def counted(srows, holding, j0, grading, pivots, prows, ops):
        fired.append((len(holding), prows is None and ops is None))
        return graded(srows, holding, j0, grading, pivots, prows, ops)

    monkeypatch.setattr(_kernel, "_forward_graded", counted)
    monkeypatch.setattr(catalog, "_CACHE", {})
    so3_9 = get_structure("so3-9")
    casimir_decompose(so3_9.lie, "t-gperp")
    assert fired == []
    stability(get_structure("psu3").generators["rho"])
    stability(so3_9.generators["star-gamma"])
    assert fired == [(81, True)] * 5
