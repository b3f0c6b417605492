import pytest

from edsx.cartan import (CartanError, PolarReport, flag_search, flag_test,
                         stable_flag_test)
from edsx.catalog import get_structure
from edsx.dga import analysis
from edsx.linalg import span_rank
from edsx.stability import _polar_rows


def test_even_family_default_flag():
    rep = flag_test(get_structure("su-even:2"))
    assert rep.c_values == [0, 0, 3, 9, 13]
    assert rep.codim_z0 == 12
    assert rep.sum_c_partial == 12
    assert rep.ordinary
    assert rep.relatively_admissible_positions == (0, 1, 2, 3, 4)


def test_custom_flag_order():
    s = get_structure("su-even:2")
    rep = flag_test(s, (1, 2, 3, 4))
    assert rep.c_values[:4] == [0, 0, 3, 9]
    assert rep.ordinary


def test_polar_counts_never_decrease():
    # polar systems accumulate rows along the flag
    for name in ("su-even:2", "su-odd:2", "g2", "example-712"):
        rep = flag_test(get_structure(name))
        assert all(a <= b for a, b in zip(rep.c_values, rep.c_values[1:]))


@pytest.mark.parametrize("name", [
    "su-even:2", "su-even:3", "su-odd:2", "su-odd:3", "psu3", "psu3-dual",
    "so3-9", "g2", "spin7", "sp2sp1", "example-712"])
def test_closure_products_add_no_polar_rank(name):
    # c(W) counts the generators' polar rows only: the differentials of
    # their products must not raise the rank on any prefix of the flag
    s = get_structure(name)
    gens = _polar_rows(s.generators.values())
    words = _polar_rows([form for _, form, _ in analysis(s).closure.words])
    for k in range(s.n + 1):
        prefix = set(s.default_flag[:k])
        rows = [r for K, r in gens if prefix.issuperset(K)]
        products = [r for K, r in words if prefix.issuperset(K)]
        assert span_rank(rows, s.n ** 2) == span_rank(rows + products,
                                                      s.n ** 2)


def test_rotation_triple_flag_is_not_ordinary():
    rep = flag_test(get_structure("so3-9"))
    assert not rep.ordinary
    assert rep.sum_c_partial == 152
    assert rep.codim_z0 == 200
    assert rep.relatively_admissible_positions == ()


def test_stable_flag_for_the_plane_pair_form():
    w = get_structure("example-712").generators["w"]
    rep = stable_flag_test(w, 7)
    assert rep.codim_z0 == 34
    assert rep.ordinary


@pytest.mark.parametrize("name,gen,drop,c_values,codim", [
    ("g2", "phi", 7, [0, 0, 0, 1, 4, 10, 20, 35], 35),
    ("spin7", "cayley", 8, [0, 0, 0, 0, 1, 5, 15, 35, 43], 56),
])
def test_stable_flag_counts_are_pinned(name, gen, drop, c_values, codim):
    # every proper prefix is stable here: c(E_k) = C(k, p) and the
    # codimension is C(n, p + 1)
    rep = stable_flag_test(get_structure(name).generators[gen], drop)
    assert rep.c_values == c_values
    assert rep.codim_z0 == codim
    assert rep.ordinary


def test_flag_search_finds_an_ordinary_flag():
    rep = flag_search(get_structure("example-712"))
    assert rep.ordinary
    assert sorted(rep.flag) == list(range(1, 8))


def test_polar_report_rejects_impossible_counts():
    with pytest.raises(CartanError):
        PolarReport((1, 2), [5, 9], 10)


def test_report_json_shape():
    j = flag_test(get_structure("su-even:2")).to_json()
    assert j["ordinary"] is True
    assert j["c_values"] == [0, 0, 3, 9, 13]
    assert j["flag"] == [1, 3, 2, 4]
