import json
from itertools import combinations
from math import comb

import pytest

from edsx import cartan, rep as rep_module, stability as stability_module
from edsx._kernel import eliminate
from edsx.catalog import get_structure
from edsx.dga import analysis
from edsx.exterior import Form, Subspace, coords, restrict
from edsx.rep import act_on_form, gl_basis
from edsx.scalar import Scalar
from edsx.stability import e_stable, sampled_hyperplanes, stability


def orbit_forms(a):
    """The n^2 orbit forms X . a over the gl(n) basis, one Form each."""
    return [act_on_form(x, a) for x in gl_basis(a.n)]


def oracle_e_stable(orbit, w, p):
    """E-stability by definition: restrict every orbit form to w and
    ask whether they span Lambda^p w."""
    want = comb(w.dim, p)
    if want == 0:
        return True
    rows = [coords(restrict(f, w), p) for f in orbit]
    # the exact elimination, not span_rank's certificate mod P
    return len(eliminate(rows, want, reduced=False)[0]) == want


def test_stable_forms():
    rho = get_structure("psu3").generators["rho"]
    rep = stability(rho)
    assert rep.stable
    assert rep.orbit_dim == 56
    assert rep.full_dim == 56
    phi = get_structure("g2").generators["phi"]
    rep = stability(phi)
    assert rep.stable and rep.orbit_dim == 35
    assert all(rep.per_hyperplane.values())


def test_unstable_forms():
    cay = get_structure("spin7").generators["cayley"]
    rep = stability(cay)
    assert not rep.stable
    assert rep.orbit_dim == 43
    assert all(rep.per_hyperplane.values())
    sig = get_structure("sp2sp1").generators["sigma"]
    rep = stability(sig)
    assert not rep.stable and rep.orbit_dim == 51


def test_dual_form_hyperplane_pattern():
    star = get_structure("so3-9").generators["star-gamma"]
    rep = stability(star)
    good = {i for i, v in rep.per_hyperplane.items() if v}
    assert good == {1, 2, 4, 5, 6, 8}


def test_e_stability_is_scale_invariant():
    cay = get_structure("spin7").generators["cayley"]
    w = Subspace.coordinate(8, [1, 2, 3, 4, 5, 6, 7])
    assert e_stable(cay, w) == e_stable(cay.scale(Scalar.of(3)), w)
    assert e_stable(cay, w) == e_stable(-cay, w)


def test_sampled_hyperplanes_are_fixed():
    a = sampled_hyperplanes(8)
    b = sampled_hyperplanes(8)
    assert len(a) == 20
    assert all(x.vectors == y.vectors for x, y in zip(a, b))


def test_sampled_stability_of_cayley_form():
    cay = get_structure("spin7").generators["cayley"]
    rep = stability(cay, sampled=True)
    assert rep.sampled_ok is True


def test_report_json():
    rep = stability(get_structure("g2").generators["phi"])
    j = rep.to_json()
    assert json.loads(json.dumps(j, sort_keys=True)) == j
    assert j["orbit_dim"] == 35
    assert j["stable"] is True


def test_sampled_hyperplanes_of_a_line_are_none():
    assert sampled_hyperplanes(1) == []
    report = stability(Form(1, {(1,): 1}), sampled=True)
    assert report.sampled_ok is True
    assert report.stable and report.per_hyperplane == {1: True}


@pytest.mark.parametrize("name", [
    "su-even:2", "su-even:3", "su-odd:2", "su-odd:3", "g2", "example-712"])
def test_e_stable_matches_the_oracle_on_coordinate_subsets(name):
    # on a coordinate prefix this is also the guarantee of the stable
    # flag test: the prefix is stable exactly when c = C(k, p)
    s = get_structure(name)
    for a in s.generators.values():
        orbit = orbit_forms(a)
        for k in range(s.n + 1):
            for sub in combinations(range(1, s.n + 1), k):
                w = Subspace.coordinate(s.n, sub)
                assert e_stable(a, w) == oracle_e_stable(orbit, w, a.degree), \
                    (name, a, sub)


@pytest.mark.parametrize("name", [
    "psu3", "psu3-dual", "so3-9", "spin7", "sp2sp1"])
def test_e_stable_matches_the_oracle_on_hyperplanes_and_flags(name):
    s = get_structure(name)
    spaces = ([Subspace.hyperplane(s.n, i) for i in range(1, s.n + 1)]
              + [Subspace.coordinate(s.n, s.default_flag[:k])
                 for k in range(s.n + 1)])
    for a in s.generators.values():
        orbit = orbit_forms(a)
        for w in spaces:
            assert e_stable(a, w) == oracle_e_stable(orbit, w, a.degree), \
                (name, a, w)


@pytest.mark.parametrize("name,gen", [
    ("g2", "phi"), ("psu3", "rho"), ("spin7", "cayley"), ("sp2sp1", "sigma")])
def test_e_stable_matches_the_oracle_on_sampled_hyperplanes(name, gen):
    a = get_structure(name).generators[gen]
    orbit = orbit_forms(a)
    for w in sampled_hyperplanes(a.n):
        assert e_stable(a, w) == oracle_e_stable(orbit, w, a.degree)


def _count_calls(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_stability_reads_one_orbit_matrix_per_form(monkeypatch):
    calls = {}
    # act_on_form builds one orbit form through rep's derivation_form, so
    # counting both also sees a copy of act_on_form imported elsewhere
    _count_calls(monkeypatch, rep_module, "act_on_form", calls)
    _count_calls(monkeypatch, rep_module, "derivation_form", calls)
    _count_calls(monkeypatch, stability_module, "orbit_matrix", calls)
    cay = get_structure("spin7").generators["cayley"]
    assert stability(cay, sampled=True).sampled_ok is True
    # one orbit matrix for the form, one per sampled pullback
    assert calls == {"orbit_matrix": 1 + 20}
    calls.clear()
    cartan.stable_flag_test(cay, 8)
    assert calls == {"orbit_matrix": 1}


@pytest.mark.parametrize("name", [
    "psu3", "psu3-dual", "g2", "spin7", "sp2sp1", "example-712"])
def test_stability_and_cartan_read_one_polar_count(name, monkeypatch):
    # on a one-generator structure the bare-form readers of c(W) and the
    # structure's table must agree, and stability ranks each of its n + 1
    # subspaces once
    s = get_structure(name)
    (a,) = s.generators.values()
    n, p = s.n, a.degree
    calls = {}
    with monkeypatch.context() as m:
        _count_calls(m, stability_module, "span_rank", calls)
        report = stability(a)
    assert calls == {"span_rank": n + 1}
    polar = analysis(s).polar
    assert report.orbit_dim == polar.count(range(1, n + 1))
    assert report.per_hyperplane == {
        i: polar.count(set(range(1, n + 1)) - {i}) == comb(n - 1, p)
        for i in range(1, n + 1)}
    for i in range(1, n + 1):
        rep = cartan.stable_flag_test(a, i)
        assert rep.to_json() == cartan.flag_test(s, rep.flag).to_json()
