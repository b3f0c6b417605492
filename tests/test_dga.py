import ast
import random
from pathlib import Path

import pytest

import edsx
from edsx.catalog import (DiffOpSpec, ParamForm, StructureSpec,
                          get_structure)
from edsx.dga import (Closure, DgaError, analysis, check_operator,
                      derivation_value, operator_values,
                      strong_admissibility, z_spaces)
from edsx.exterior import Form, parse_form, wedge
from edsx.rep import LieRep, act_on_hom
from edsx.scalar import Scalar

CATALOG = ("su-even:2", "su-even:3", "su-even:4", "su-odd:2", "su-odd:3",
           "su-odd:4", "psu3", "psu3-dual", "so3-9", "g2", "spin7",
           "sp2sp1", "example-712")


def rand_form(rng, n, p, terms=2):
    f = Form.zero(n)
    for _ in range(terms):
        idx = tuple(sorted(rng.sample(range(1, n + 1), p)))
        f = f + Form.monomial(n, idx, Scalar.of(rng.randrange(-3, 4)))
    return f


def test_derivation_value_is_a_derivation():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randrange(3, 6)
        images = [rand_form(rng, n, 2, 2) for _ in range(n)]
        p = rng.randrange(1, n)
        q = rng.randrange(1, n)
        a = rand_form(rng, n, p)
        b = rand_form(rng, n, q)
        left = derivation_value(images, wedge(a, b))
        sign = Scalar.of(-1 if p % 2 else 1)
        right = wedge(derivation_value(images, a), b) \
            + wedge(a, derivation_value(images, b)).scale(sign)
        assert left == right


def test_derivation_value_on_basis_covectors():
    images = [Form.monomial(4, (3, 4), 1)] + [Form.zero(4)] * 3
    assert derivation_value(images, Form.monomial(4, (1,), 1)) == images[0]
    # d(e1 ^ e2) = d(e1) ^ e2 = e3 ^ e4 ^ e2 = e2 ^ e3 ^ e4
    assert derivation_value(images, Form.monomial(4, (1, 2), 1)) \
        == Form.monomial(4, (2, 3, 4), 1)


def test_zero_operator_checks_out_everywhere():
    for name in ("su-even:2", "su-odd:2", "g2", "example-712"):
        chk = check_operator(get_structure(name), "zero")
        assert chk.all_ok(), name
        assert chk.extension_witness is not None


def test_unknown_operator_rejected():
    with pytest.raises((DgaError, KeyError, ValueError)):
        check_operator(get_structure("g2"), "missing-op")


def test_operator_family_samples():
    s = get_structure("su-odd:2")
    for lam, mu in ((0, 0), (1, 0), (3, 1)):
        chk = check_operator(s, "A", {"lambda": lam, "mu": mu})
        assert chk.all_ok(), (lam, mu)


def test_failing_operator_reports_false():
    s = get_structure("so3-9")
    chk = check_operator(s, "gamma-dual", {"lambda": 1})
    assert not chk.leibniz_ok
    assert not chk.extends_ok
    assert not chk.all_ok()
    assert chk.extension_witness is None


def test_extension_witness_reproduces_the_operator():
    s = get_structure("su-even:3")
    chk = check_operator(s, "nearly-kahler", {"lambda": 3, "mu": 0})
    fvals = s.operators["nearly-kahler"].instantiate(
        {"lambda": Scalar.of(3), "mu": Scalar.of(0)})
    for wit in (chk.extension_witness, chk.equivariant_witness):
        assert wit is not None
        for g, target in fvals.items():
            assert derivation_value(wit.images, s.generators[g]) == target
    assert all(act_on_hom(x, chk.equivariant_witness).is_zero()
               for x in s.lie.basis)


def test_z_space_dimensions():
    zr = z_spaces(get_structure("su-even:2"), "zero")
    n = 4
    assert zr.z_prime_dim == 12
    assert zr.z_dim == 12 + n * n * (n + 1) // 2
    assert zr.z_doubleprime_dim == 0
    assert zr.xi_f is not None and zr.xi_f.is_zero()


def test_z_space_with_nonzero_operator():
    zr = z_spaces(get_structure("su-odd:2"), "B",
                  {"lambda": 1, "mu": 1})
    assert zr.z_prime_dim == 15
    assert zr.z_dim == 90
    assert zr.xi_f is not None and not zr.xi_f.is_zero()


def test_z_space_empty_when_unsolvable():
    zr = z_spaces(get_structure("so3-9"), "gamma-dual", {"lambda": 1})
    assert zr.z_prime_dim is None
    assert zr.z_dim is None
    assert zr.z_doubleprime_dim is None
    assert zr.xi_f is None


def test_strong_admissibility_report():
    ok, rep = strong_admissibility(get_structure("su-even:2"))
    assert ok
    assert rep["codim_z0"] == 12
    assert rep["dim_t_gperp"] == 12
    assert rep["codim_matches"]
    assert rep["z_prime_dim"] == 12
    assert rep["g_tensor_expected"] == 12
    assert rep["g_tensor_inside"]
    assert rep["splitting_exact"]


def test_zero_z_double_prime_means_codim_attained():
    # codim Z_0 in the degree-2 jet space equals the polar count total
    from edsx.cartan import flag_test
    s = get_structure("su-odd:2")
    ok, rep = strong_admissibility(s)
    assert ok
    assert flag_test(s).codim_z0 == rep["codim_z0"]


def _toy(n, generators, values):
    """A structure of the trivial Lie algebra on R^n with one operator f."""
    gens = {g: parse_form(text, n) for g, text in generators.items()}
    f = DiffOpSpec("f", (), {g: ParamForm(n, {None: parse_form(text, n)})
                             for g, text in values.items()})
    return StructureSpec("toy", n, LieRep("trivial", n, []), gens,
                         range(1, n + 1), {"f": f})


def _two_odd_toy():
    # f(b) = e[3,4] on a = e[1], b = e[2], c = e[3,4]: the derivation with
    # D(e^2) = e[3,4] extends it, so every relation (a ^ b ^ b = 0 among
    # them) is respected
    return _toy(4, {"a": "e[1]", "b": "e[2]", "c": "e[3,4]"},
                {"b": "e[3,4]"})


def _no_extension_toy():
    # f(b) = a ^ c respects the relations of the closure, but no
    # derivation of the exterior algebra extends f
    return _toy(6, {"a": "2*e[2] - 2*e[3]", "b": "e[1,2,5]",
                    "c": "e[1,4,6]"},
                {"b": "-2*e[1,2,4,6] + 2*e[1,3,4,6]"})


def _square_nonzero_toy():
    # D: e^1 -> e[2,3], e^2 -> e[1,2] extends f, but f(f(a)) = f(b)
    # = e[1,2,3] = d_D(e[2,3]) is not zero
    return _toy(3, {"a": "e[1]", "b": "e[2,3]"},
                {"a": "e[2,3]", "b": "e[1,2,3]"})


def test_an_extendable_operator_can_fail_to_square_to_zero():
    s = _square_nonzero_toy()
    chk = check_operator(s, "f")
    assert chk.leibniz_ok and chk.extends_ok
    assert not chk.square_zero_ok
    assert not chk.all_ok()
    # any extension D sends f(a) = b to f(b)
    assert derivation_value(chk.extension_witness.images,
                            operator_values(s, "f")["a"]) \
        == parse_form("e[1,2,3]", 3)


def test_leibniz_sign_with_two_odd_generators():
    s = _two_odd_toy()
    chk = check_operator(s, "f")
    assert chk.leibniz_ok and chk.extends_ok and chk.square_zero_ok
    closure = analysis(s).closure
    values = closure.induced_values(operator_values(s, "f"))
    assert closure.respects(values)
    # a ^ b ^ b is a zero word: f(a) ^ b ^ b - a ^ f(b) ^ b + a ^ b ^ f(b)
    # = -e[1,3,4,2] + e[1,2,3,4] = 0
    abb = closure.words.index(((0, 1, 1), Form.zero(4), 3))
    assert values[abb].is_zero()
    wit = chk.extension_witness
    for g, target in operator_values(s, "f").items():
        assert derivation_value(wit.images, s.generators[g]) == target


def test_relations_respected_without_an_extension():
    s = _no_extension_toy()
    assert operator_values(s, "f")["b"] \
        == wedge(s.generators["a"], s.generators["c"])
    chk = check_operator(s, "f")
    assert chk.leibniz_ok
    assert not chk.extends_ok
    assert chk.extension_witness is None
    assert z_spaces(s, "f").z_prime_dim is None


def _leibniz_sum(closure, word, fvals):
    """f on the word's product, by the graded Leibniz rule written out:
    the sum over t of (-1)^(degrees left of t) g_0 ^ ... ^ f(g_t) ^ ...,
    the factors in word order."""
    total = Form.zero(closure.n)
    for t, g in enumerate(word):
        img = fvals.get(closure.gen_names[g])
        if img is None:
            continue
        piece = None
        for u, h in enumerate(word):
            factor = img if u == t else closure.gen_forms[h]
            piece = factor if piece is None else wedge(piece, factor)
        shift = sum(closure.gen_degrees[h] for h in word[:t])
        total = total + (-piece if shift % 2 else piece)
    return total


def _catalog_queries(params):
    for name in CATALOG:
        s = get_structure(name)
        for op, spec in s.operators.items():
            for assignment in (params if spec.params else ({},)):
                yield s, op, {p: assignment[p] for p in spec.params}


def test_induced_values_are_the_leibniz_sums():
    params = ({"lambda": Scalar.parse("3/2"), "mu": Scalar.of(-2)},
              {"lambda": Scalar.parse("1 + r2"), "mu": -Scalar.sqrt(3)})
    queries = list(_catalog_queries(params))
    queries += [(_two_odd_toy(), "f", None), (_no_extension_toy(), "f", None)]
    checked = 0
    for s, op, assignment in queries:
        closure = Closure(s.n, s.generators)
        fvals = operator_values(s, op, assignment)
        values = closure.induced_values(fvals)
        assert len(values) == len(closure.words)
        for (word, _, _), value in zip(closure.words, values):
            assert value == _leibniz_sum(closure, word, fvals), (
                s.name, op, word)
            checked += 1
    assert checked == 855


def test_extendable_operators_respect_their_relations():
    # the shortcuts of check_operator: an extension implies the relation
    # test, and its square-zero verdict is the one the Leibniz values give
    # when they are summed over each value's expression in the words
    ones = {"lambda": Scalar.of(1), "mu": Scalar.of(1)}
    radical = {"lambda": Scalar.of(1), "mu": Scalar.sqrt(2)}
    queries = list(_catalog_queries((ones, radical)))
    queries.append((_square_nonzero_toy(), "f", None))
    extendable, verdicts = 0, set()
    for s, op, assignment in queries:
        chk = check_operator(s, op, assignment)
        if not chk.extends_ok:
            continue
        closure = analysis(s).closure
        fvals = operator_values(s, op, assignment)
        values = closure.induced_values(fvals)
        assert closure.respects(values), (s.name, op, assignment)
        sums = [sum((values[i].scale(c) for i, c in
                     closure.express(v, v.degree)), Form.zero(s.n))
                for v in fvals.values() if not v.is_zero()]
        assert all(x.is_zero() for x in sums) == chk.square_zero_ok, (
            s.name, op, assignment)
        verdicts.add(chk.square_zero_ok)
        extendable += 1
    assert extendable == 30
    assert verdicts == {True, False}


def test_relations_are_tested_only_without_an_extension(monkeypatch):
    def refuse(self, values, w=None):
        raise AssertionError("relation test")

    monkeypatch.setattr(Closure, "respects", refuse)
    chk = check_operator(_two_odd_toy(), "f")
    assert chk.leibniz_ok and chk.extends_ok
    chk = check_operator(get_structure("su-odd:3"), "B",
                         {"lambda": 1, "mu": Scalar.sqrt(2)})
    assert chk.leibniz_ok and chk.extends_ok
    with pytest.raises(AssertionError, match="relation test"):
        check_operator(_no_extension_toy(), "f")
    with pytest.raises(AssertionError, match="relation test"):
        check_operator(get_structure("so3-9"), "gamma-dual", {"lambda": 1})


def test_leibniz_values_are_formed_only_without_an_extension(monkeypatch):
    def refuse(self, fvals):
        raise AssertionError("Leibniz values")

    monkeypatch.setattr(Closure, "induced_values", refuse)
    chk = check_operator(_two_odd_toy(), "f")
    assert chk.all_ok()
    chk = check_operator(get_structure("su-odd:3"), "B",
                         {"lambda": 1, "mu": Scalar.sqrt(2)})
    assert chk.all_ok()
    chk = check_operator(_square_nonzero_toy(), "f")
    assert chk.extends_ok and not chk.square_zero_ok
    with pytest.raises(AssertionError, match="Leibniz values"):
        check_operator(_no_extension_toy(), "f")
    with pytest.raises(AssertionError, match="Leibniz values"):
        check_operator(get_structure("so3-9"), "gamma-dual", {"lambda": 1})


def _imports(path):
    """(module, name, line) of every from-imported name in a source file,
    and (None, attribute, line) of every attribute read."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.module, alias.name, node.lineno
        elif isinstance(node, ast.Attribute):
            yield None, node.attr, node.lineno


def test_restriction_and_cartan_use_only_the_public_dga_names():
    # the extension system and the relation test have one owner, edsx.dga,
    # and only linalg solves a system outside an Elimination
    src = Path(edsx.__file__).parent
    private = ["%s:%d %s" % (f, line, name)
               for f in ("restriction.py", "cartan.py")
               for module, name, line in _imports(src / f)
               if module in ("dga", "edsx.dga") and name.startswith("_")]
    assert private == []
    solvers = ["%s:%d" % (path.name, line)
               for path in sorted(src.glob("*.py"))
               if path.name != "linalg.py"
               for _, name, line in _imports(path)
               if name == "solve_affine"]
    assert solvers == []
