import sys
from itertools import permutations
from pathlib import Path
from random import Random

import pytest

import edsx.stability
from edsx import catalog
from edsx.cartan import (CartanError, PolarReport, flag_search, flag_test,
                         stable_flag_test)
from edsx.catalog import get_structure
from edsx.dga import analysis, extension
from edsx.exterior import lex_index
from edsx.linalg import span_rank
from edsx.rep import orbit_matrix
from edsx.restriction import restrict_structure
from edsx.stability import PolarTable


def _orbit_rows(forms):
    """(p-subset K, row) for the nonzero orbit-matrix rows of the nonzero
    forms: the polar rows, built here apart from PolarTable."""
    return [(K, row) for a in forms if a.degree is not None
            for K, row in zip(lex_index(a.n, a.degree)[0], orbit_matrix(a))
            if row]


def _rank_within(rows, indices, n):
    """The rank of the rows whose p-subset lies in the indices."""
    w = set(indices)
    return span_rank([row for K, row in rows if w.issuperset(K)], n * n)


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
    gens = _orbit_rows(s.generators.values())
    words = _orbit_rows([form for _, form, _ in analysis(s).closure.words])
    for k in range(s.n + 1):
        prefix = s.default_flag[:k]
        assert _rank_within(gens, prefix, s.n) == _rank_within(
            gens + words, prefix, s.n)


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


def _battery(name):
    """Every flag of a small structure, or 30 seeded ones of a larger."""
    n = get_structure(name).n
    if n <= 5:
        return list(permutations(range(1, n + 1)))
    rng = Random("flag-battery:" + name)
    flags = []
    for _ in range(30):
        flag = list(range(1, n + 1))
        rng.shuffle(flag)
        flags.append(tuple(flag))
    return flags


def _reference_reports(name, flags):
    """flag_test's JSON for each flag, from ranks outside the polar table."""
    s = get_structure(name)
    n = s.n
    rows = _orbit_rows(s.generators.values())
    codim = extension(n, s.generators.values()).rank
    out = []
    for flag in flags:
        c = [_rank_within(rows, flag[:k], n) for k in range(n + 1)]
        ordinary = sum(c[:n]) == codim
        out.append({"flag": list(flag), "c_values": c, "codim_z0": codim,
                    "sum_c_partial": sum(c[:n]), "ordinary": ordinary,
                    "relatively_admissible_positions":
                        list(range(n + 1)) if ordinary else []})
    return out


@pytest.mark.parametrize("name", [
    "su-even:2", "su-odd:2", "psu3", "psu3-dual", "so3-9", "g2", "spin7"])
def test_polar_table_reports_match_uncached_ranks(name, monkeypatch):
    # the table must give each flag the report of the per-flag ranks,
    # whatever the structure has been asked before: cold, after a flag
    # search has filled most of it, and with the flags in reverse order
    flags = _battery(name)
    want = _reference_reports(name, flags)
    cold = []
    for flag in flags:
        monkeypatch.setattr(catalog, "_CACHE", {})
        cold.append(flag_test(get_structure(name), flag).to_json())
    assert cold == want
    monkeypatch.setattr(catalog, "_CACHE", {})
    s = get_structure(name)
    flag_search(s)
    assert [flag_test(s, flag).to_json() for flag in flags] == want
    monkeypatch.setattr(catalog, "_CACHE", {})
    s = get_structure(name)
    assert [flag_test(s, flag).to_json() for flag in reversed(flags)] == \
        want[::-1]


def _workload_flags():
    """The 22 psu3 flags of the radical benchmark workload at seed 1."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return [tuple(q["flag"]) for q in workloads.generate("radical", 1)
            if q["kind"] == "flag_test"]


def test_polar_table_builds_rows_once_and_ranks_each_subset_once(
        monkeypatch):
    monkeypatch.setattr(catalog, "_CACHE", {})
    built, asked, ranked = [], [], []
    real_orbit_matrix = edsx.stability.orbit_matrix
    real_count = PolarTable.count
    real_span_rank = edsx.stability.span_rank

    def counted_orbit_matrix(a, *args):
        built.append(a)
        return real_orbit_matrix(a, *args)

    def counted_count(table, indices):
        # the forms of one table share one degree, psu3's 3 and its dual's 5
        asked.append((table.forms[0].degree, frozenset(indices)))
        return real_count(table, indices)

    def counted_span_rank(rows, ncols):
        ranked.append(asked[-1])
        return real_span_rank(rows, ncols)

    monkeypatch.setattr(edsx.stability, "orbit_matrix", counted_orbit_matrix)
    monkeypatch.setattr(PolarTable, "count", counted_count)
    monkeypatch.setattr(edsx.stability, "span_rank", counted_span_rank)
    flags = _workload_flags()
    assert len(flags) == 22
    psu3, dual = get_structure("psu3"), get_structure("psu3-dual")
    for flag in flags:
        flag_test(psu3, flag)
    for s in (psu3, dual):
        assert restrict_structure(s, "zero").relatively_admissible
    assert built == [psu3.generators["rho"], dual.generators["star-rho"]]
    assert len(ranked) == len(set(ranked))
    want = {(3, frozenset(f[:k])) for f in flags + [psu3.default_flag]
            for k in range(3, 9)}
    want |= {(5, frozenset(dual.default_flag[:k])) for k in range(5, 9)}
    assert {(p, w) for p, w in ranked if len(w) >= p} == want

    # a second search over all 2^9 subsets asks the table only
    s = get_structure("so3-9")
    built.clear()
    first = flag_search(s).to_json()
    assert built == list(s.generators.values())
    built.clear()
    ranked.clear()
    assert flag_search(s).to_json() == first
    assert built == [] and ranked == []


@pytest.mark.parametrize("name", ["su-even:2", "su-odd:2", "example-712"])
def test_flag_search_attains_the_best_partial_sum(name):
    # brute force over every insertion order: the search must report the
    # largest sum of c over proper prefixes, on a flag that attains it
    s = get_structure(name)
    n = s.n
    c = analysis(s).polar.count

    def partial(flag):
        return sum(c(flag[:k]) for k in range(n))

    best = max(partial(f) for f in permutations(range(1, n + 1)))
    rep = flag_search(s)
    assert rep.sum_c_partial == best
    assert partial(rep.flag) == best
    assert rep.to_json() == flag_test(s, rep.flag).to_json()
