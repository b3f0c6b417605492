"""The kernel's integer-numerator scalars against plain rational dicts.

Each operation of edsx._kernel is run on scalars converted from random
{mask: Fraction} dicts and compared, after conversion back, with the same
operation done term by term in Fraction arithmetic.  Every result must be
canonical: a positive denominator, no zero numerator, no factor shared by
the denominator and all numerators, and None for zero.  derandomize=True
fixes the examples, so the suite is deterministic.
"""

import sys
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from edsx._kernel import (ONE, PRIMES, s_add, s_from_fractions, s_inv,
                          s_mul, s_neg, s_sub, s_submul, s_to_fractions)
from edsx.scalar import Scalar, ratio_text

PROPERTY = settings(derandomize=True, database=None, max_examples=200,
                    deadline=None)

small = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 30))
# numerators and denominators past 2**64
big = st.builds(Fraction, st.integers(-2 ** 90, 2 ** 90),
                st.integers(1, 2 ** 70))
cells = st.dictionaries(st.integers(0, 15), st.one_of(small, big),
                        max_size=6).map(
                            lambda d: {k: q for k, q in d.items() if q})
nonzero_cells = cells.filter(bool)


def _shared(mask):
    g = 1
    for k, p in enumerate(PRIMES):
        if mask >> k & 1:
            g *= p
    return g


def ref_add(a, b, sign=1):
    out = dict(a)
    for k, q in b.items():
        out[k] = out.get(k, 0) + sign * q
    return {k: q for k, q in out.items() if q}


def ref_mul(a, b):
    out = {}
    for ka, qa in a.items():
        for kb, qb in b.items():
            k = ka ^ kb
            out[k] = out.get(k, 0) + qa * qb * _shared(ka & kb)
    return {k: q for k, q in out.items() if q}


def canonical(s):
    if s is None:
        return True
    den, nums = s
    return (type(den) is int and den > 0 and nums
            and all(type(x) is int and x for x in nums.values())
            and gcd(den, *nums.values()) == 1)


def check(result, want):
    """result is the canonical scalar of the rational dict want."""
    assert canonical(result)
    assert s_to_fractions(result) == want
    assert (result is None) == (not want)
    assert result == s_from_fractions(want)


@PROPERTY
@given(cells)
def test_conversion_round_trip(a):
    s = s_from_fractions(a)
    check(s, a)
    check(s_neg(s), {k: -q for k, q in a.items()})


@PROPERTY
@given(cells, cells)
def test_add_and_sub(a, b):
    sa, sb = s_from_fractions(a), s_from_fractions(b)
    check(s_add(sa, sb), ref_add(a, b))
    check(s_sub(sa, sb), ref_add(a, b, -1))
    check(s_sub(sa, sa), {})


@PROPERTY
@given(cells, cells)
def test_mul(a, b):
    check(s_mul(s_from_fractions(a), s_from_fractions(b)), ref_mul(a, b))


@PROPERTY
@given(cells, nonzero_cells, nonzero_cells)
def test_submul(a, c, b):
    sa, sc, sb = s_from_fractions(a), s_from_fractions(c), s_from_fractions(b)
    check(s_submul(sa, sc, sb), ref_add(a, ref_mul(c, b), -1))
    # a - c*b that cancels to zero
    check(s_submul(s_mul(sc, sb), sc, sb), {})


@PROPERTY
@given(nonzero_cells)
def test_inverse(a):
    s = s_from_fractions(a)
    inv = s_inv(s)
    assert canonical(inv)
    assert list(inv[1]) == sorted(inv[1])
    assert ref_mul(a, s_to_fractions(inv)) == {0: 1}
    assert s_mul(s, inv) == ONE


def test_values_past_the_int_text_limit():
    a = {0: Fraction(10 ** 2200 + 1, 3), 3: Fraction(-7, 10 ** 2190 + 9)}
    b = {0: Fraction(10 ** 2300 - 1, 11), 5: Fraction(2 ** 90, 5)}
    want = ref_mul(a, b)
    s = s_mul(s_from_fractions(a), s_from_fractions(b))
    check(s, want)
    coeffs = Scalar(s).coeffs()
    texts = {d: ratio_text(q.numerator, q.denominator)
             for d, q in coeffs.items()}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert max(len(t) for t in texts.values()) > 4300
        assert texts == {d: str(q) for d, q in coeffs.items()}
    finally:
        sys.set_int_max_str_digits(limit)
