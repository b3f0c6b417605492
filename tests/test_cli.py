import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from edsx.catalog import get_structure
from edsx.cli import main
from edsx.dga import check_operator
from edsx.scalar import Scalar

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cartan_output_line(capsys):
    code, out, _ = run(capsys, ["cartan", "--structure", "su-even:3"])
    assert code == 0
    assert out == "c = [0,0,1,5,14,22], ordinary true\n"


def test_invariants_dim_line(capsys):
    code, out, _ = run(capsys, ["invariants", "--structure", "so3-9",
                                "--degree", "4"])
    assert code == 0
    assert out.splitlines()[0] == "dim 1"


def test_invariants_all_degrees(capsys):
    code, out, _ = run(capsys, ["invariants", "--structure", "su-even:2"])
    assert code == 0
    assert "degree 2: dim 3" in out


def test_dga_pass_and_fail_exit_codes(capsys):
    code, out, _ = run(capsys, ["dga", "--structure", "su-even:3",
                                "--operator", "nearly-kahler",
                                "--params", "lambda=3,mu=0"])
    assert code == 0
    assert "all ok true" in out
    code, out, _ = run(capsys, ["dga", "--structure", "so3-9",
                                "--operator", "gamma-dual",
                                "--params", "lambda=1"])
    assert code == 1
    assert "all ok false" in out


def test_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, ["cartan", "--structure", "nope"])
    assert code == 2
    assert "unknown structure" in err
    code, _, err = run(capsys, ["dga", "--structure", "su-odd:2",
                                "--operator", "A", "--params", "lambda=x"])
    assert code == 2
    code, _, err = run(capsys, ["stability", "--structure", "so3-9"])
    assert code == 2
    assert "--generator" in err
    for cmd in ("dga", "zspaces"):
        code, _, err = run(capsys, [cmd, "--structure", "su-odd:2",
                                    "--operator", "A",
                                    "--params", "lambda=1/0,mu=0"])
        assert code == 2
        assert err.startswith("edsx: bad value for 'lambda'")
    code, out, err = run(capsys, ["dga", "--structure", "su-odd:2",
                                  "--operator", "A",
                                  "--params", "lambda=1,lambda=2,mu=0"])
    assert (code, out) == (2, "")
    assert err == "edsx: parameter 'lambda' given twice\n"
    for params in ("=1", "="):
        code, out, err = run(capsys, ["dga", "--structure", "su-odd:2",
                                      "--operator", "A", "--params", params])
        assert (code, out) == (2, "")
        assert err == "edsx: parameter %r has an empty name\n" % params
    for degree in ("-1", "8"):
        code, _, err = run(capsys, ["invariants", "--structure", "g2",
                                    "--degree", degree])
        assert code == 2
        assert err == "edsx: --degree %s outside 0..7\n" % degree
    for deep in ("(" * 1200 + "1" + ")" * 1200, "-" * 1500 + "1"):
        code, out, err = run(capsys, ["dga", "--structure", "su-even:3",
                                      "--operator", "nearly-kahler",
                                      "--params", "lambda=%s,mu=0" % deep])
        assert code == 2
        assert out == ""
        assert err == ("edsx: bad value for 'lambda': nesting deeper than "
                       "100 at position 100 in scalar\n")
    code, out, err = run(capsys, ["paper-check", "--cases", "-1"])
    assert code == 2
    assert out == ""
    assert err == "edsx: --cases -1 is negative\n"
    # an empty flag is a bad flag, not the default one
    code, out, err = run(capsys, ["cartan", "--structure", "su-even:3",
                                  "--flag", ""])
    assert (code, out) == (2, "")
    assert err == ("edsx: flag '' is not a comma-separated integer "
                   "list\n")
    code, out, err = run(capsys, ["cartan", "--structure", "su-even:3",
                                  "--search", "--flag", "1,2,3,4,5,6"])
    assert (code, out) == (2, "")
    assert err == "edsx: --search chooses the flag; drop --flag\n"


def test_values_past_the_int_text_limit_print(capsys):
    # each literal has 1000 digits, their product 5000; Python's int -> str
    # stops at 4300 digits by default
    big = "*".join(["9" * 1000] * 5)
    argv = ["dga", "--structure", "su-even:3", "--operator", "nearly-kahler",
            "--params", "lambda=%s,mu=0" % big]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "all ok true"
    code, out, err = run(capsys, argv + ["--json"])
    assert (code, err) == (0, "")
    texts = json.loads(out)["extension_witness"]
    assert max(len(t) for t in texts) > 5000
    chk = check_operator(get_structure("su-even:3"), "nearly-kahler",
                         {"lambda": Scalar.parse(big), "mu": Scalar.of(0)})
    cells = [v.coeffs() for v in chk.extension_witness.flatten()]
    want = [c.get(1, 0) for c in cells]
    assert all(not set(c) - {1} for c in cells)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert [Fraction(t) for t in texts] == want
    finally:
        sys.set_int_max_str_digits(limit)


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "edsx", "cartan", "--structure", "su-even:3"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "c = [0,0,1,5,14,22], ordinary true\n"


def _closed_pipe(write_through=False):
    """A text stream on a pipe whose read end is closed: writing to it
    raises BrokenPipeError, as when a reader such as head exits early.
    Buffered, the error comes from the flush; written through, from the
    first print."""
    r, w = os.pipe()
    os.close(r)
    if write_through:
        return io.TextIOWrapper(os.fdopen(w, "wb", buffering=0),
                                write_through=True)
    return os.fdopen(w, "w")


def test_closed_stdout_exits_one_without_a_traceback(monkeypatch):
    for argv, write_through in (
            (["invariants", "--structure", "spin7", "--degree", "4"], False),
            (["invariants", "--structure", "spin7", "--degree", "4"], True),
            (["dga", "--structure", "su-odd:4", "--operator", "B",
              "--params", "lambda=2,mu=r3", "--json"], False),
            (["dga", "--structure", "su-odd:4", "--operator", "B",
              "--params", "lambda=2,mu=r3", "--json"], True)):
        out = _closed_pipe(write_through)
        monkeypatch.setattr(sys, "stdout", out)
        err = io.StringIO()
        with redirect_stderr(err):
            assert main(argv) == 1, argv
        assert err.getvalue() == ""
        # stdout now points at devnull, so closing it flushes quietly
        out.close()


def test_closed_stdout_pipe_of_a_process():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = _closed_pipe()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "edsx", "invariants", "--structure",
             "spin7", "--degree", "4"], cwd=ROOT, env=env, stdout=out,
            stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        out.close()
    assert (proc.returncode, proc.stderr) == (1, "")


def test_stability_json_payload(capsys):
    code, out, _ = run(capsys, ["stability", "--structure", "g2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["orbit_dim"] == 35
    assert payload["stable"] is True
    assert payload["tool"] == "edsx"
    assert payload["provenance"] == "derived"


def test_zspaces_empty_report(capsys):
    code, out, _ = run(capsys, ["zspaces", "--structure", "so3-9",
                                "--operator", "gamma-dual",
                                "--params", "lambda=1"])
    assert code == 0
    assert "dim Z' = empty" in out


def test_restrict_report(capsys):
    code, out, _ = run(capsys, ["restrict", "--structure", "su-even:2",
                                "--operator", "zero"])
    assert code == 0
    assert "dims Z' 52, projection 27, Z'_W 24" in out
    assert "projection onto true" in out


def test_decompose_report(capsys):
    code, out, _ = run(capsys, ["decompose", "--structure", "so3-9",
                                "--space", "t-gperp"])
    assert code == 0
    assert "dim 297" in out
    assert "25 irreducible components" in out


def test_decompose_needs_small_algebra(capsys):
    code, _, err = run(capsys, ["decompose", "--structure", "g2"])
    assert code == 2
    assert "3-dimensional" in err


def test_cartan_json_matches_human(capsys):
    code, out, _ = run(capsys, ["cartan", "--structure", "su-even:3",
                                "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["c_values"][:6] == [0, 0, 1, 5, 14, 22]
    assert payload["ordinary"] is True


# The argv fuzz keeps to structures whose every query takes milliseconds;
# the bad names cover each way a name can fail to parse or resolve.
FUZZ_NAMES = st.one_of(
    st.sampled_from(("su-even:2", "su-odd:2", "su-even:3", "g2",
                     "example-712")),
    st.sampled_from(("su-even:02", "nope", "su-even", "su-even:9",
                     "su-even:x", "su-odd:", "g2:3", ":", "", "su-even:-2")))
FUZZ_NUMBERS = st.sampled_from(["-1", "0", "1", "3", "7", "8", "99", "x", ""])
FUZZ_OPTIONS = {
    "--structure": FUZZ_NAMES,
    "--operator": st.sampled_from(["zero", "A", "B", "nearly-kahler",
                                   "gamma-dual", "nope", ""]),
    "--params": st.sampled_from(["lambda=1,mu=0", "lambda=r2,mu=-1/2",
                                 "lambda=-3,mu=0", "lambda=1", "mu=x",
                                 "lambda=1/0,mu=0", "", "=", "lambda",
                                 "lambda=1,lambda=2"]),
    "--flag": st.sampled_from(["", ",", "1,2,3,4", "4,3,2,1", "1,2",
                               "1,2,3,4,5,6,7", "7,6,5,4,3,2,1", "1,1,2,3",
                               "0,1,2,3", "a", "-1"]),
    "--drop": FUZZ_NUMBERS,
    "--degree": FUZZ_NUMBERS,
    "--space": st.sampled_from(["t-gperp", "quotient", "t-lambda2", "t-g",
                                "T", "bad"]),
    "--generator": st.sampled_from(["F", "alpha", "omega-plus", "phi", "w",
                                    "nope"]),
    "--cases": st.sampled_from(["-1", "x", ""]),
}
FUZZ_SWITCHES = ("--json", "--search", "--sampled", "--bogus")
FUZZ_VALID = {
    "invariants": ("--degree",),
    "stability": ("--generator", "--sampled"),
    "dga": ("--params",),
    "zspaces": ("--params",),
    "cartan": ("--flag", "--search"),
    "restrict": ("--params", "--drop"),
    "decompose": ("--space",),
    "paper-check": (),
    "nope": (),
}


@st.composite
def fuzz_argv(draw):
    """An argv that is mostly well formed, so most draws reach the command."""
    cmd = draw(st.sampled_from(sorted(FUZZ_VALID)))
    argv = [cmd]
    if draw(st.integers(0, 9)):
        argv += ["--structure", draw(FUZZ_OPTIONS["--structure"])]
    if cmd in ("dga", "zspaces", "restrict") and draw(st.integers(0, 5)):
        argv += ["--operator", draw(FUZZ_OPTIONS["--operator"])]
    anything = sorted(FUZZ_OPTIONS) + list(FUZZ_SWITCHES)
    for _ in range(draw(st.integers(0, 3))):
        stray = draw(st.integers(0, 7)) == 0
        opt = draw(st.sampled_from(
            anything if stray else FUZZ_VALID[cmd] + ("--json",)))
        argv.append(opt)
        if opt in FUZZ_OPTIONS:
            argv.append(draw(FUZZ_OPTIONS[opt]))
    if cmd == "paper-check":
        # a valid count runs the whole battery, which takes many seconds
        argv += ["--cases", draw(FUZZ_OPTIONS["--cases"])]
    return argv


def test_integer_options_read_only_ascii_digits(capsys):
    # the one integer reader: int() would take these as 3, 1, 8 and 1
    for name in ("su-even:\u0663", "su-even:0_3"):
        code, out, err = run(capsys, ["invariants", "--structure", name])
        assert (code, out) == (2, "")
        assert err == "edsx: bad structure suffix %r\n" % name.split(":")[1]
    code, out, err = run(capsys, ["cartan", "--structure", "su-even:3",
                                  "--flag", "\u0661,2,3,4,5,6"])
    assert (code, out) == (2, "")
    assert err == ("edsx: flag '\u0661,2,3,4,5,6' is not a comma-separated "
                   "integer list\n")
    for argv in (["invariants", "--structure", "g2", "--degree", "\u0663"],
                 ["restrict", "--structure", "psu3", "--operator", "zero",
                  "--drop", "\u0668"],
                 ["paper-check", "--cases", "\u0661"],
                 ["invariants", "--structure", "g2", "--degree", "1_0"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(
            "argument %s: invalid integer value: %r\n" % tuple(argv[-2:]))
    # signs and ASCII whitespace are read, and so are long digit runs
    assert run(capsys, ["invariants", "--structure", "su-even:+2",
                        "--degree", " 2"])[:2] \
        == run(capsys, ["invariants", "--structure", "su-even:2",
                        "--degree", "2"])[:2]
    big = "9" * 5000
    for argv, message in (
            (["invariants", "--structure", "g2", "--degree", big],
             "--degree %s outside 0..7" % big),
            (["restrict", "--structure", "psu3", "--operator", "zero",
              "--drop", big], "--drop %s outside 1..8" % big),
            (["paper-check", "--cases", "-" + big],
             "--cases -%s is negative" % big),
            (["cartan", "--structure", "su-even:3", "--flag",
              "1,2,3,4,5," + big],
             "flag must order the indices 1..6, got (1, 2, 3, 4, 5, %s)" % big)):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", "edsx: %s\n" % message)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(fuzz_argv())
def test_argv_fuzz_keeps_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("edsx: ") or "usage: edsx" in err, (argv, err)
