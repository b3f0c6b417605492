"""Rank-only eliminations against the forward phase that keeps its rows.

eliminate(..., certify=...) keeps no pivot rows: it returns (pivots,
None), after a refused certificate too.  Its scalar steps scale each
target's multiplier by the inverse lead instead of normalizing the pivot
row, unless the row is the shorter, and its integer loop converts
nothing back to scalars.  The rows it leaves are the same values either
way, so certify="pivots" must give the pivots of eliminate(...,
reduced=False), and certify="rank" their number (and the very pivots
whenever the certificate did not answer), with the switch to the integer
loop never taken, taken at once and taken midway.
"""

import random
from types import SimpleNamespace

import pytest

from edsx import _kernel
from edsx._kernel import ONE, eliminate
from edsx.catalog import get_structure

from test_cartan import _orbit_rows
from test_kernel_switch import (AT_ONCE, NEVER, _extension, _graded,
                                _random_graded_cases, _updates)
from test_rref_oracle import CATALOG, _cases

ALL_PRIMES = SimpleNamespace(masks=range(16))


@pytest.fixture
def spies(monkeypatch):
    """Counts of the rank-only calls: certificate answers and refusals,
    _graded_entry calls, and s_mul calls outside s_inv, split at each
    s_inv call (one per pivot step whose lead is not 1)."""
    seen = SimpleNamespace(answered=0, refused=0, entries=0, muls=[0],
                           depth=0, scaled=0)
    certified = _kernel._certified
    entry = _kernel._graded_entry
    inv = _kernel.s_inv
    mul = _kernel.s_mul

    def spy_certified(*args):
        got = certified(*args)
        if got is None:
            seen.refused += 1
        else:
            seen.answered += 1
        return got

    def spy_entry(*args):
        seen.entries += 1
        return entry(*args)

    def spy_inv(a):
        seen.depth += 1
        try:
            return inv(a)
        finally:
            seen.depth -= 1
            seen.muls.append(0)

    def spy_mul(a, b):
        if not seen.depth:
            seen.muls[-1] += 1
        return mul(a, b)

    monkeypatch.setattr(_kernel, "_certified", spy_certified)
    monkeypatch.setattr(_kernel, "_graded_entry", spy_entry)
    monkeypatch.setattr(_kernel, "s_inv", spy_inv)
    monkeypatch.setattr(_kernel, "s_mul", spy_mul)
    return seen


def _step_bounds(rows, ncols):
    """min(targets, pivot-row length) of each forward step whose lead is
    not 1, read off the operations of the scalar loop."""
    ops = []
    _, prows = eliminate([dict(r) for r in rows], ncols, reduced=False,
                         ops=ops)
    return [min(len(targets), len(prow))
            for (_, inv, targets), prow in zip(ops, prows) if inv is not ONE]


def _agree(monkeypatch, spies, rows, ncols):
    """Check the rank-only calls against the forward phase three ways."""
    nnz = sum(map(len, rows))
    half = _updates(monkeypatch, rows, ncols) / 2
    monkeypatch.setattr(_kernel, "SWITCH", NEVER)
    want = eliminate([dict(r) for r in rows], ncols, reduced=False)[0]
    bounds = _step_bounds(rows, ncols)
    for switch in (NEVER, AT_ONCE, (half - 64) / max(nnz, 1)):
        monkeypatch.setattr(_kernel, "SWITCH", switch)
        for certify in ("rank", "pivots"):
            answered = spies.answered
            entries = spies.entries
            spies.muls = [0]
            pivots, prows = eliminate([dict(r) for r in rows], ncols,
                                      reduced=False, certify=certify)
            assert prows is None
            assert spies.entries == entries
            # no s_mul before the first inverse lead, and each step with
            # one at most the shorter of its targets and its pivot row
            assert spies.muls[0] == 0
            assert all(m <= b for m, b in zip(spies.muls[1:], bounds))
            spies.scaled += sum(spies.muls)
            if certify == "pivots" or spies.answered == answered:
                assert pivots == want
            else:
                assert len(pivots) == len(want)
    monkeypatch.setattr(_kernel, "SWITCH", NEVER)


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_extension_matrices(monkeypatch, spies, name):
    rows, ncols = _extension(name)
    _agree(monkeypatch, spies, rows, ncols)
    assert spies.answered == spies.refused == 0


@pytest.mark.parametrize("name", CATALOG)
def test_polar_rows_of_the_default_flag_prefixes(monkeypatch, spies, name):
    s = get_structure(name)
    rows = _orbit_rows(s.generators.values())
    for k in range(s.n + 1):
        w = set(s.default_flag[:k])
        _agree(monkeypatch, spies,
               [row for K, row in rows if w.issuperset(K)], s.n * s.n)
    assert spies.answered == spies.refused == 0


def test_random_graded_and_ungraded_rows(monkeypatch, spies):
    for rows, ncols in _random_graded_cases():
        _agree(monkeypatch, spies, rows, ncols)
    assert spies.answered == spies.refused == 0 and spies.scaled
    # single terms on random masks, which no grading fits: their updates
    # make multi-term leads, so these reach the certificate too
    rng = random.Random(7741)
    for _ in range(20):
        rows, _ = _graded(rng, rng.randint(3, 12), 10, density=0.4)
        for row in rows:
            for k, (den, nums) in row.items():
                (x,) = nums.values()
                row[k] = den, {rng.randrange(16): x}
        _agree(monkeypatch, spies, rows, 10)


def test_multi_term_rows_go_on_after_a_refused_certificate(monkeypatch,
                                                           spies):
    for rows, ncols in _cases(ALL_PRIMES, 7742, 110):
        _agree(monkeypatch, spies, rows, ncols)
    assert spies.answered > 100 and spies.refused > 100 and spies.scaled
