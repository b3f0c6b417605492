import json

import pytest

from edsx.catalog import get_structure
from edsx.exterior import Subspace, parse_form, wedge
from edsx.restriction import RestrictionError, restrict_structure
from edsx.scalar import Scalar


def test_default_hyperplane_is_sorted():
    rep = restrict_structure(get_structure("su-even:3"), "zero")
    assert rep.coords == (1, 2, 3, 4, 5)


def test_restricted_generators_of_even_structure():
    rep = restrict_structure(get_structure("su-even:3"), "zero")
    assert rep.p_image_gens == {
        "F": parse_form("e[1,2]+e[3,4]", 5),
        "omega-plus": parse_form("e[1,3,5]-e[2,4,5]", 5),
        "omega-minus": parse_form("e[1,4,5]+e[2,3,5]", 5),
    }
    assert rep.kerp_condition
    assert all(pf.parts[None].is_zero() for pf in rep.f_w.values.values())
    assert rep.hypotheses_ok


def test_restriction_of_evolution_operator():
    rep = restrict_structure(get_structure("su-odd:2"), "B",
                             {"lambda": 1, "mu": 1})
    fw = {g: pf.parts[None] for g, pf in rep.f_w.values.items()}
    pg = rep.p_image_gens
    assert fw["alpha"] == pg["F"]
    assert fw["F"].is_zero()
    assert fw["omega-plus"] == wedge(pg["alpha"], pg["omega-minus"])
    assert fw["omega-minus"] == -wedge(pg["alpha"], pg["omega-plus"])


def test_rejects_non_coordinate_subspace():
    s = get_structure("su-even:2")
    diag = Subspace(4, [[Scalar.of(1)] * 4])
    with pytest.raises(RestrictionError):
        restrict_structure(s, "zero", None, diag)
    wrong_n = Subspace.coordinate(5, [1, 2, 3])
    with pytest.raises(RestrictionError):
        restrict_structure(s, "zero", None, wrong_n)


def test_projection_covers_subspace_solutions_when_admissible():
    rep = restrict_structure(get_structure("su-even:2"), "zero")
    assert rep.surjectivity_dims == (52, 27, 24)
    assert rep.projection_onto is True
    assert rep.relatively_admissible
    assert rep.extends_ok
    assert rep.dims_match is False


def test_dims_match_on_the_plane_pair_example():
    rep = restrict_structure(get_structure("example-712"), "zero")
    assert rep.surjectivity_dims == (309, 196, 196)
    assert rep.dims_match is True
    assert rep.projection_onto is True


def test_empty_ambient_solutions_reported():
    rep = restrict_structure(get_structure("so3-9"), "gamma-dual",
                             {"lambda": 1})
    assert not rep.extends_ok
    assert rep.surjectivity_dims == (None, None, 428)
    assert rep.projection_onto is None
    assert rep.dims_match is None
    assert not rep.hypotheses_ok


def test_report_json_is_serializable():
    rep = restrict_structure(get_structure("su-even:2"), "zero")
    j = rep.to_json()
    assert json.loads(json.dumps(j, sort_keys=True)) == j
    assert j["surjectivity_dims"] == [52, 27, 24]
    assert j["kerp_condition"] is True


def test_subspace_that_kills_every_generator():
    # rho has no term inside span{e_1, e_2}: the subspace system is empty
    rep = restrict_structure(get_structure("psu3"), "zero", None,
                             Subspace.coordinate(8, [1, 2]))
    out = rep.to_json()
    assert out["p_image_gens"] == {} and out["f_w"] == {}
    assert out["surjectivity_dims"] == [442, 8, 8]
    assert out["extends_ok"] and out["hypotheses_ok"]
