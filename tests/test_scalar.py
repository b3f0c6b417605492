import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from edsx._kernel import ONE, s_inv, s_mul
from edsx.scalar import Scalar, ratio_text

from test_kernel_scalars import cell_of, scalar_of


def test_rational_arithmetic():
    a = Scalar.of(3) / Scalar.of(4)
    b = Scalar.of(-2) / Scalar.of(5)
    assert a + b == Scalar.parse("7/20")
    assert a * b == Scalar.parse("-3/10")
    assert a - a == Scalar.of(0)
    assert (a / b) * b == a


def test_sqrt_products():
    r2 = Scalar.sqrt(2)
    r3 = Scalar.sqrt(3)
    assert r2 * r2 == Scalar.of(2)
    assert r2 * r3 == Scalar.sqrt(6)
    assert Scalar.sqrt(6) * Scalar.sqrt(10) == Scalar.of(2) * Scalar.sqrt(15)
    assert Scalar.sqrt(210) * Scalar.sqrt(210) == Scalar.of(210)


def test_sqrt_rejects_outside_tower():
    with pytest.raises(ValueError):
        Scalar.sqrt(11)
    with pytest.raises(ValueError):
        Scalar.sqrt(4)


def test_parse_literals():
    assert Scalar.parse("5") == Scalar.of(5)
    assert Scalar.parse("-7/3") == Scalar.of(-7) / Scalar.of(3)
    assert Scalar.parse("r2") == Scalar.sqrt(2)
    assert Scalar.parse("1/2*r6") == Scalar.sqrt(6) / Scalar.of(2)
    assert Scalar.parse("1+r2") == Scalar.of(1) + Scalar.sqrt(2)


def test_parse_rejects_garbage():
    for text in ("x", "r11", "1//2", ""):
        with pytest.raises(ValueError):
            Scalar.parse(text)


def test_inverse_of_radical_combinations():
    one = Scalar.of(1)
    a = Scalar.of(1) + Scalar.sqrt(2)
    assert a * (one / a) == one
    b = Scalar.sqrt(3) - Scalar.of(2) * Scalar.sqrt(5) + Scalar.of(1) / Scalar.of(3)
    assert b * (one / b) == one
    with pytest.raises(ZeroDivisionError):
        one / Scalar.of(0)


def test_zero_and_bool():
    z = Scalar.of(0)
    assert z.is_zero()
    assert not z
    assert not Scalar.sqrt(7).is_zero()
    assert Scalar.sqrt(7)


def test_equality_and_hash():
    a = Scalar.of(1) / Scalar.of(2) + Scalar.sqrt(3)
    b = Scalar.sqrt(3) + Scalar.parse("1/2")
    assert a == b
    assert hash(a) == hash(b)
    assert a != Scalar.sqrt(3)


def test_str_roundtrip():
    vals = [Scalar.of(0), Scalar.of(-3), Scalar.parse("2/7"),
            Scalar.sqrt(2), Scalar.of(1) - Scalar.sqrt(5) / Scalar.of(4)]
    for v in vals:
        assert Scalar.parse(str(v)) == v


def test_random_field_identities():
    rng = random.Random(99)
    for _ in range(300):
        parts = []
        for _ in range(3):
            q = Scalar.of(rng.randrange(-8, 9)) / Scalar.of(rng.randrange(1, 7))
            d = rng.choice((1, 2, 3, 5, 7, 6, 10, 35))
            parts.append(q * (Scalar.of(1) if d == 1 else Scalar.sqrt(d)))
        a = parts[0]
        b = parts[1]
        c = parts[2]
        assert (a + b) * c == a * c + b * c
        assert a - (b - c) == (a - b) + c
        if not b.is_zero():
            assert (a / b) * b == a


def _element(rng, keys):
    return {k: Fraction(rng.choice((-1, 1)) * rng.randrange(1, 40),
                        rng.randrange(1, 13)) for k in keys}


def _certified_inverse(cell):
    """s_inv(a) of the scalar a of a {mask: Fraction} cell, checked by
    a * s_inv(a) == 1 and s_inv(s_inv(a)) == a, as a {mask: Fraction} cell."""
    a = scalar_of(cell)
    before = (a[0], list(a[1].items()))
    inv = s_inv(a)
    assert (a[0], list(a[1].items())) == before
    assert s_mul(a, inv) == ONE
    assert list(inv[1]) == sorted(inv[1])
    assert s_inv(inv) == a
    return cell_of(inv)


def test_inverse_of_every_key_set_of_size_at_most_two():
    rng = random.Random(4101)
    sets = [keys for size in (1, 2) for keys in combinations(range(16), size)]
    assert len(sets) == 136
    for keys in sets:
        inv = _certified_inverse(_element(rng, keys))
        if len(keys) == 1:
            assert list(inv) == list(keys)


def test_inverse_of_random_elements_of_each_size():
    rng = random.Random(4102)
    for size in range(3, 17):
        for _ in range(8):
            _certified_inverse(_element(rng, rng.sample(range(16), size)))


def test_inverse_of_towers_that_collapse_early():
    # masks: r2 = 1, r3 = 2, r6 = 3, r10 = 5, r15 = 6, r210 = 15
    one = Fraction(1)
    assert _certified_inverse({1: one, 2: one}) == {1: -one, 2: one}
    assert _certified_inverse({0: one, 3: one}) == {0: Fraction(-1, 5),
                                                    3: Fraction(1, 5)}
    assert _certified_inverse({0: one, 15: one}) == {0: Fraction(-1, 209),
                                                     15: Fraction(1, 209)}
    _certified_inverse({3: one, 5: one, 6: one})
    _certified_inverse({1: Fraction(3), 3: Fraction(-2, 7)})


def test_inverse_of_zero_names_it():
    with pytest.raises(ZeroDivisionError, match="^scalar inverse of zero$"):
        s_inv(None)


def test_rational_text_past_the_int_text_limit():
    c = 10 ** 600
    ints = [0, 7, c - 1, c, c + 1, 5 * c * c + 3, c ** 9 - 1, 10 ** 4301]
    rats = [Fraction(k) for k in ints] + [Fraction(-k, 3) for k in ints if k % 3]
    rats += [Fraction(1, c + 1), Fraction(-(c ** 8) - 1, c ** 8 + 3)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = [str(q) for q in rats]
    finally:
        sys.set_int_max_str_digits(limit)
    assert [ratio_text(q.numerator, q.denominator) for q in rats] == want
