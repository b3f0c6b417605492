"""Self-tests of the benchmark: generator, verifier and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import hashlib
import os
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import child  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


def test_generator_is_deterministic_per_seed():
    for w in workloads.WORKLOADS:
        a, b = workloads.generate(w, 7), workloads.generate(w, 7)
        assert a == b
        assert workloads.digest(a) == workloads.digest(b)
        assert workloads.digest(a) != workloads.digest(
            workloads.generate(w, 8))


def test_generator_does_not_import_the_package():
    code = ("import sys, workloads\n"
            "for w in workloads.WORKLOADS: workloads.generate(w, 1)\n"
            "print(sorted(m for m in sys.modules if m.startswith('edsx')))")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _run_field_queries(kinds, count=3):
    from edsx import exterior, linalg, scalar
    m = {"catalog": types.SimpleNamespace(get_structure=None),
         "exterior": exterior, "linalg": linalg, "scalar": scalar}
    qs = [q for q in workloads.generate("field", 3) if q["kind"] in kinds]
    out = []
    for q in qs[:count]:
        inputs, run = child._prepare(q, m)
        out.append((q, inputs, run()))
    return out


def _failures(cases):
    return sum(1 for q, inputs, (out, err) in cases
               if child.check_output(verify, q, inputs, out, err,
                                     hashlib.sha256()))


def test_verifier_counts_planted_wrong_values():
    runs = _run_field_queries(("rank", "div_chain"), 6)
    cases = [(q, inputs, (out, None)) for q, inputs, out in runs]
    assert _failures(cases) == 0
    i = next(i for i, c in enumerate(cases) if c[0]["kind"] == "rank")
    q, inputs, (out, _) = cases[i]
    cases[i] = (q, inputs, (out + 1, None))
    assert _failures(cases) == 1
    cases[i] = (q, inputs, (None, "ZeroDivisionError: planted"))
    assert _failures(cases) == 1


def test_verifier_holds_pinned_values():
    q = {"kind": "z_spaces", "structure": "su-odd:3", "op": "A"}
    good = types.SimpleNamespace(z_dim=252, z_doubleprime_dim=0)
    assert verify.problems(q, None, good) == []
    bad = types.SimpleNamespace(z_dim=253, z_doubleprime_dim=0)
    assert verify.problems(q, None, bad)
    q = {"kind": "casimir", "structure": "so3-9", "space": "t-gperp"}
    assert verify.problems(q, None, types.SimpleNamespace(components=25,
                                                          dim=279))


def _load_layers():
    from edsx import cartan, dga, restriction, stability  # noqa: F401


def _namespace_snapshot():
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("edsx"):
            continue
        for attr, val in vars(mod).items():
            snap[(name, attr)] = val
            if isinstance(val, type) and val.__module__ == name:
                for cattr, cval in vars(val).items():
                    snap[(name, attr, cattr)] = cval
    return snap


def test_tracer_restores_every_wrapped_function():
    _load_layers()
    for kinds in (tracer.SPANS, tracer.COUNTS):
        before = _namespace_snapshot()
        t = tracer.Tracer(kinds).install()
        try:
            during = _namespace_snapshot()
            assert any(during[k] is not before[k] for k in before)
            assert t.absent == []
            _run_field_queries(("rank",), 2)
        finally:
            t.uninstall()
        after = _namespace_snapshot()
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)
        layers = t.layer_metrics()
        if kinds == tracer.SPANS:
            assert layers["linalg.rank.calls"] == 2
            assert layers["kernel.rref.calls"] == 2
            assert layers["kernel.rref.self_s"] > 0
        else:
            assert layers["scalar.boxed"] > 0


def test_tracer_reports_a_missing_target_as_absent(monkeypatch):
    _load_layers()
    extra = ("kernel.gone", ("_kernel", "_fallback"), "no_such_op", "span")
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (extra,))
    t = tracer.Tracer().install()
    t.uninstall()
    assert t.absent == ["kernel.gone (no_such_op)"]
