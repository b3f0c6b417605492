import json

import pytest

from edsx import catalog
from edsx.catalog import (CatalogError, DiffOpSpec, ParamForm, get_structure,
                          parse_structure_name, structure_names,
                          structure_to_json)
from edsx.exterior import hodge, parse_form
from edsx.rep import act_on_form
from edsx.scalar import Scalar, as_scalar


def test_structure_names_listing():
    names = structure_names()
    assert "su-even" in names and "so3-9" in names and "example-712" in names
    assert len(names) == 9


def test_parse_structure_name():
    assert parse_structure_name("su-even:3") == ("su-even", 3)
    assert parse_structure_name("g2") == ("g2", None)
    with pytest.raises(CatalogError):
        parse_structure_name("su-even:x")


def test_family_needs_dimension():
    with pytest.raises(CatalogError):
        get_structure("su-even")
    with pytest.raises(CatalogError):
        get_structure("g2:5")
    with pytest.raises(CatalogError):
        get_structure("nonsense")


def test_structures_are_cached():
    assert get_structure("g2") is get_structure("g2")
    assert get_structure("su-odd:2") is get_structure("su-odd", 2)


def test_ambient_dimensions_and_flags():
    dims = {"su-even:2": 4, "su-even:3": 6, "su-odd:2": 5, "su-odd:3": 7,
            "psu3": 8, "psu3-dual": 8, "so3-9": 9, "g2": 7, "spin7": 8,
            "sp2sp1": 8, "example-712": 7}
    for name, n in dims.items():
        s = get_structure(name)
        assert s.n == n
        assert sorted(s.default_flag) == list(range(1, n + 1))


def test_generators_are_invariant():
    for name in ("su-even:2", "su-odd:2", "psu3", "so3-9", "g2", "spin7",
                 "sp2sp1", "example-712"):
        s = get_structure(name)
        for gname, a in s.generators.items():
            assert all(act_on_form(x, a).is_zero() for x in s.lie.basis), \
                (name, gname)


def test_stabilizer_dims():
    assert get_structure("g2").lie.dim == 14
    assert get_structure("spin7").lie.dim == 21
    assert get_structure("sp2sp1").lie.dim == 13
    assert get_structure("psu3").lie.dim == 8
    assert get_structure("so3-9").lie.dim == 3


def test_known_generator_values():
    e7 = get_structure("example-712")
    assert e7.generators["w"] == parse_form("e[1,2]+e[3,4]", 7)
    s9 = get_structure("so3-9")
    assert s9.generators["star-gamma"] == hodge(s9.generators["gamma"])
    su = get_structure("su-even:2")
    assert su.generators["F"] == parse_form("e[1,2]+e[3,4]", 4)


def test_dual_structure_uses_hodge():
    rho = get_structure("psu3").generators["rho"]
    star = get_structure("psu3-dual").generators["star-rho"]
    assert star == hodge(rho)


def test_printed_variant_differs():
    printed = get_structure("psu3", as_printed=True)
    corrected = get_structure("psu3")
    assert printed.generators["rho"] != corrected.generators["rho"]
    bad = sum(1 for x in corrected.lie.basis
              if not act_on_form(x, printed.generators["rho"]).is_zero())
    assert bad > 0


def test_operator_parameters():
    s = get_structure("su-even:3")
    op = s.operators["nearly-kahler"]
    vals = op.instantiate({"lambda": Scalar.of(3), "mu": Scalar.of(0)})
    assert set(vals) == set(s.generators)
    assert vals["F"] == s.generators["omega-plus"].scale(Scalar.of(3))
    with pytest.raises(CatalogError):
        op.instantiate({"lambda": Scalar.of(3)})
    with pytest.raises(CatalogError):
        op.instantiate({})


def test_instantiate_parses_each_value_once(monkeypatch):
    # A uses lambda in three parts and mu in two
    op = get_structure("su-odd:3").operators["A"]
    want = op.instantiate({"lambda": Scalar.parse("1/2"),
                           "mu": Scalar.parse("r2")})
    parsed = []
    real = catalog.as_scalar

    def counted(x):
        if isinstance(x, str):
            parsed.append(x)
        return real(x)

    monkeypatch.setattr(catalog, "as_scalar", counted)
    assert op.instantiate({"lambda": "1/2", "mu": "r2"}) == want
    assert parsed == ["1/2", "r2"]


@pytest.mark.parametrize("bad", ["1/", "x", ""])
def test_instantiate_raises_the_parse_error(bad):
    with pytest.raises(ValueError) as want:
        as_scalar(bad)
    op = get_structure("su-odd:3").operators["A"]
    with pytest.raises(ValueError) as got:
        op.instantiate({"lambda": "1", "mu": bad})
    assert (type(got.value), str(got.value)) \
        == (type(want.value), str(want.value))


def test_instantiate_never_parses_an_unused_parameter():
    form = get_structure("su-even:3").generators["omega-plus"]
    op = DiffOpSpec("toy", ("lambda", "mu"),
                    {"F": ParamForm(6, {"lambda": form})})
    vals = op.instantiate({"lambda": "2", "mu": "not a scalar"})
    assert vals == {"F": form.scale(Scalar.of(2))}


def test_zero_operator_everywhere():
    for name in ("su-even:2", "su-odd:2", "g2"):
        s = get_structure(name)
        vals = s.operators["zero"].instantiate({})
        assert all(v.is_zero() for v in vals.values())


def test_structure_to_json_is_serializable():
    payload = structure_to_json(get_structure("su-odd:2"))
    text = json.dumps(payload, sort_keys=True)
    back = json.loads(text)
    assert back["name"] == "su-odd:2"
    assert back["n"] == 5
    assert "generators" in back and "operators" in back
