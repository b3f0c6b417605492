import random
from itertools import combinations, product

import pytest

from edsx.exterior import (Form, Subspace, _sort_sign, contract, coords,
                           flatten, form_literal, from_coords, hodge,
                           lex_index, parse_form, restrict, scalar_value,
                           wedge)
from edsx.scalar import Scalar


def F(text, n):
    return parse_form(text, n)


def rand_form(rng, n, p, terms=3):
    f = Form.zero(n)
    for _ in range(terms):
        idx = tuple(sorted(rng.sample(range(1, n + 1), p)))
        c = Scalar.of(rng.randrange(-5, 6)) / Scalar.of(rng.randrange(1, 5))
        f = f + Form.monomial(n, idx, c)
    return f


def test_monomial_ordering_and_sign():
    a = Form.monomial(4, (2, 1), 1)
    assert a == Form.monomial(4, (1, 2), -1)
    assert Form.monomial(4, (1, 1), 1).is_zero()


def _subsets(n):
    return [I for p in range(n + 1) for I in combinations(range(1, n + 1), p)]


def test_sort_sign_is_the_inversion_parity():
    count = 0
    for length in range(6):
        for idx in product(range(1, 8), repeat=length):
            count += 1
            got = _sort_sign(idx)
            if len(set(idx)) < length:
                assert got == (None, 0)
                continue
            inv = sum(1 for s in range(length) for t in range(s + 1, length)
                      if idx[s] > idx[t])
            assert got == (tuple(sorted(idx)), -1 if inv & 1 else 1)
    assert count == 19608


def test_wedge_of_basis_forms_is_the_sorted_monomial():
    n = 6
    subsets = _subsets(n)
    assert len(subsets) ** 2 == 4096
    for I in subsets:
        for J in subsets:
            got = wedge(Form.monomial(n, I), Form.monomial(n, J))
            assert got == Form.monomial(n, I + J)


def test_wedge_with_hodge_is_the_volume_form():
    for n in range(1, 7):
        vol = Form.monomial(n, range(1, n + 1))
        for I in _subsets(n):
            e = Form.monomial(n, I)
            assert wedge(e, hodge(e)) == vol


def test_degree_property():
    assert F("e[1,2]", 4).degree == 2
    assert Form.zero(4).degree is None
    assert F("3", 4).degree == 0


def test_wedge_graded_commutativity():
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randrange(2, 7)
        p = rng.randrange(1, n)
        q = rng.randrange(1, n)
        a = rand_form(rng, n, p)
        b = rand_form(rng, n, q)
        ab = wedge(a, b)
        ba = wedge(b, a)
        if (p * q) % 2:
            assert ab == -ba
        else:
            assert ab == ba


def test_wedge_associativity():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randrange(3, 7)
        fs = [rand_form(rng, n, rng.randrange(1, 3), 2) for _ in range(3)]
        assert wedge(wedge(fs[0], fs[1]), fs[2]) == \
            wedge(fs[0], wedge(fs[1], fs[2]))


def test_contract_known_values():
    a = F("e[1,2,3]", 4)
    e = Subspace.coordinate(4, range(1, 5)).vectors
    assert contract(e[0], a) == F("e[2,3]", 4)
    assert contract(e[1], a) == F("-e[1,3]", 4)
    assert contract(e[3], a).is_zero()
    v = [Scalar.of(0), Scalar.of(2), Scalar.of(0), Scalar.of(0)]
    assert contract(v, a) == F("-2*e[1,3]", 4)


def test_contract_multi_antisymmetry():
    # (e1 ^ e2) -| a contracts e2 first
    a = F("e[1,2,3,4]", 5)
    e1 = [Scalar.of(1 if i == 0 else 0) for i in range(5)]
    e2 = [Scalar.of(1 if i == 1 else 0) for i in range(5)]
    assert contract(e1, contract(e2, a)) == -contract(e2, contract(e1, a))


def test_hodge_known_values():
    assert hodge(F("e[1]", 2)) == F("e[2]", 2)
    assert hodge(F("e[2]", 2)) == F("-e[1]", 2)
    assert hodge(F("e[1,2]", 4)) == F("e[3,4]", 4)
    vol = F("e[1,2,3,4,5]", 5)
    assert hodge(F("1", 5)) == vol
    assert hodge(vol) == F("1", 5)


def test_hodge_involution_sign():
    rng = random.Random(13)
    for _ in range(80):
        n = rng.randrange(2, 8)
        p = rng.randrange(0, n + 1)
        a = rand_form(rng, n, p)
        sign = Scalar.of(-1 if (p * (n - p)) % 2 else 1)
        assert hodge(hodge(a)) == a.scale(sign)


def test_restrict_coordinate_subspace():
    w = Subspace.coordinate(5, [1, 2, 4])
    a = F("e[1,2] + e[2,4] + e[3,5] + e[1,5]", 5)
    # local indices follow the given coordinate order
    assert restrict(a, w) == F("e[1,2] + e[2,3]", 3)
    assert restrict(F("e[3,5]", 5), w).is_zero()


def test_restrict_general_subspace():
    # diagonal line in the plane: pullback of e1 and e2 agree
    v = [Scalar.of(1), Scalar.of(1)]
    w = Subspace(2, [v])
    assert restrict(F("e[1]", 2), w) == F("e[1]", 1)
    assert restrict(F("e[1]-e[2]", 2), w).is_zero()


def test_restrict_is_a_wedge_morphism():
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randrange(3, 7)
        k = rng.randrange(2, n)
        coords = sorted(rng.sample(range(1, n + 1), k))
        w = Subspace.coordinate(n, coords)
        a = rand_form(rng, n, rng.randrange(0, 3))
        b = rand_form(rng, n, rng.randrange(0, 3))
        assert restrict(wedge(a, b), w) == wedge(restrict(a, w),
                                                 restrict(b, w))


def test_flatten_matches_coords():
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randrange(2, 6)
        p = rng.randrange(0, n + 1)
        a = rand_form(rng, n, p)
        vec = flatten(a, p)
        assert len(vec) == len(lex_index(n, p)[0])
        assert {t: x.c for t, x in enumerate(vec) if x} == coords(a, p)
        assert from_coords(coords(a, p), n, p) == a


def test_scalar_value():
    assert scalar_value(F("7/2", 3)) == Scalar.parse("7/2")
    assert scalar_value(Form.zero(3)) == Scalar.of(0)
    with pytest.raises(ValueError):
        scalar_value(F("e[1]", 3))


def test_parse_literal_roundtrip():
    rng = random.Random(16)
    for _ in range(40):
        n = rng.randrange(2, 7)
        a = rand_form(rng, n, rng.randrange(0, n + 1))
        assert parse_form(form_literal(a), n) == a


def test_parse_radical_coefficients():
    a = F("1/4*r5*e[1,2] - r2*e[3,4]", 4)
    assert a == Form.monomial(4, (1, 2), Scalar.sqrt(5) / Scalar.of(4)) \
        + Form.monomial(4, (3, 4), -Scalar.sqrt(2))


def test_parse_rejects_bad_literals():
    for text in ("e[1,2", "q[1]", "e[1]*e[1,2]+", "2**3"):
        with pytest.raises(ValueError):
            parse_form(text, 4)


def test_unclosed_monomial_bracket_is_named():
    with pytest.raises(ValueError, match=r"unclosed '\[' at position 1 "):
        parse_form("e[1,2", 3)
    with pytest.raises(ValueError, match=r"unclosed '\[' at position 8 "):
        parse_form("e[1] + e[2,3", 3)


def test_subspace_rejects_dependent_vectors():
    e = [[1 if i == j else 0 for i in range(3)] for j in range(3)]
    with pytest.raises(ValueError):
        Subspace.from_vectors(3, e + [[1, 1, 1]])
    with pytest.raises(ValueError):
        Subspace.from_vectors(3, [[1, 2, 0], [2, 4, 0]])
    assert Subspace.from_vectors(3, [[1, 1, 1], e[0]]).dim == 2


def test_completed_basis_begins_with_the_subspace():
    w = Subspace.from_vectors(4, [[1, 1, 0, 0], [0, 1, 1, 1]])
    full = w.completed()
    assert full.dim == 4
    assert full.vectors[:2] == w.vectors
    # e_2 is skipped: it lies in the span of w and e_1
    assert full.vectors[2:] == Subspace.coordinate(4, [1, 3]).vectors
    assert Subspace.from_vectors(4, full.vectors).dim == 4
