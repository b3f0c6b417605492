"""The one literal grammar behind Scalar.parse and parse_form.

The pinned tables hold canonical texts and exact error messages as the
two separate scalar and form parsers gave them; the merged grammar has to
reproduce every one.  REWORDED holds the messages it words anew: a bare r
in a form gets the scalar message, and a bad index, too deep nesting,
trailing input and a literal that ends where a factor is due each name
their position (the old parsers showed the last two as internal tokens,
such as ('int', 2) or None).  The hypothesis tests feed both entry
points, and the CLI, arbitrary text over the literal alphabet.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from edsx.cli import main
from edsx.exterior import parse_form
from edsx.scalar import MAX_NESTING, WHITESPACE, Scalar, integer

# text -> canonical text, through Scalar.parse
SCALARS = [
    ("5", "5"), ("-7/3", "-7/3"), ("r2", "r2"), ("1/2*r6", "1/2*r6"),
    ("1+r2", "1 + r2"), ("(1 + r2)/2", "1/2 + 1/2*r2"),
    ("-1/4*r5", "-1/4*r5"), ("r210", "r210"), ("r002", "r2"), ("--1", "1"),
    ("+-+1", "-1"), ("2*(3-r5)/(1+r7)", "-1 + 1/3*r5 + r7 - 1/3*r35"),
    (" 1 ", "1"), ("r2/r3", "1/3*r6"), ("2/3/4", "1/6"),
    ("r30*r7", "r210"), ("-r14*2/3", "-2/3*r14"),
    ("-9/2 - 3/2*r210", "-9/2 - 3/2*r210"), ("(((1)))", "1"), ("0", "0"),
    ("0*r5", "0"), ("r6*r10*r15", "30"), ("007/014", "1/2"),
]

# text -> canonical form literal, through parse_form on R^4
FORMS = [
    ("e[1]", "e[1]"), ("e[1,2]", "e[1,2]"), ("e[]", "1"),
    ("e[1, 2]", "e[1,2]"), ("e[ 1 ]", "e[1]"), ("e[+1]", "e[1]"),
    ("e[2,1]", "-e[1,2]"), ("e[1,1]", "0"), ("e[1]+0", "e[1]"),
    ("0*e[1]", "0"), ("e[1]/e[]", "e[1]"), ("e[1,2]*e[3,4]", "e[1,2,3,4]"),
    ("r5*e[1]*r3", "r15*e[1]"),
    ("(1+r2)*e[1,2] - r2*e[3,4]", "(1 + r2)*e[1,2] - r2*e[3,4]"),
    ("e[1]*(e[2]+e[3])", "e[1,2] + e[1,3]"),
    ("(e[1]+e[2])*(e[1]-e[2])", "-2*e[1,2]"), ("-e[1]", "-e[1]"),
    ("+e[2]", "e[2]"), ("1/2*e[1]/r2", "1/4*r2*e[1]"), ("7/2", "7/2"),
    ("-1/4*r5*e[2,4] + e[1,3]", "e[1,3] - 1/4*r5*e[2,4]"),
    ("e[1]/(1+r2)", "(-1 + r2)*e[1]"),
    ("(2*e[1,2] - e[1,2])/3", "1/3*e[1,2]"), ("e[4,3,2,1]", "e[1,2,3,4]"),
    ("e[1,2] - e[1,2]", "0"), ("(1+r2)*(1-r2)*e[3]", "-e[3]"),
]

V, Z = ValueError, ZeroDivisionError

# text -> (exception, message), through Scalar.parse
SCALAR_ERRORS = [
    ("x", V, "unexpected character 'x' in scalar"),
    ("r1", V, "r1 is not a squarefree divisor of 210"),
    ("r11", V, "r11 is not a squarefree divisor of 210"),
    ("r", V, "bad radical token at 'r'"),
    ("r+1", V, "bad radical token at 'r+1'"),
    ("rx", V, "bad radical token at 'rx'"),
    ("1 r", V, "bad radical token at 'r'"),
    ("1//2", V, "expected a scalar factor, got '/'"),
    ("(1", V, "unbalanced parenthesis in scalar"),
    ("()", V, "expected a scalar factor, got ')'"),
    ("*1", V, "expected a scalar factor, got '*'"),
    ("1/0", Z, "scalar inverse of zero"),
    ("1/(r2-r2)", Z, "scalar inverse of zero"),
    ("e[1]", V, "unexpected character 'e' in scalar"),
    ("2**3", V, "expected a scalar factor, got '*'"),
    ("r12", V, "r12 is not a squarefree divisor of 210"),
    ("((1)", V, "unbalanced parenthesis in scalar"),
    ("1*/2", V, "expected a scalar factor, got '/'"),
    ("1/2/0", Z, "scalar inverse of zero"),
    ("1,2", V, "unexpected character ',' in scalar"),
    ("1.5", V, "unexpected character '.' in scalar"),
    ("r0", V, "r0 is not a squarefree divisor of 210"),
]

# text -> (exception, message), through parse_form on R^4
FORM_ERRORS = [
    ("e[1,2", V, "unclosed '[' at position 1 in form literal"),
    ("e[1] + e[2,3", V, "unclosed '[' at position 8 in form literal"),
    ("q[1]", V, "unexpected character 'q' in form literal"),
    ("2**3", V, "expected a form factor, got '*'"),
    ("e [1]", V, "unexpected character 'e' in form literal"),
    ("e", V, "unexpected character 'e' in form literal"),
    ("ee[1]", V, "unexpected character 'e' in form literal"),
    ("e[1]+1", V, "adding forms of different degrees"),
    ("1/e[1]", V, "division by a non-scalar form"),
    ("e[1]/0", Z, "scalar inverse of zero"),
    ("e[1]/(e[1]*e[1])", Z, "scalar inverse of zero"),
    ("e[9]", V, "index out of range 1..4: (9,)"),
    ("e[0]", V, "index out of range 1..4: (0,)"),
    ("e[-1]", V, "index out of range 1..4: (-1,)"),
    ("e[3,-1]", V, "index out of range 1..4: (-1, 3)"),
    ("e[9,9]", V, "index out of range 1..4: (9, 9)"),
    ("e[0,0]", V, "index out of range 1..4: (0, 0)"),
    ("e[-1,-1]", V, "index out of range 1..4: (-1, -1)"),
    ("e[1,2]+e[3]", V, "adding forms of different degrees"),
    ("e[1]]", V, "unexpected character ']' in form literal"),
    ("r0*e[1]", V, "r0 is not a squarefree divisor of 210"),
    ("(e[1]", V, "unbalanced parenthesis in form literal"),
    ("x*e[1]", V, "unexpected character 'x' in form literal"),
    ("r1", V, "r1 is not a squarefree divisor of 210"),
    ("1/0", Z, "scalar inverse of zero"),
    ("e[1,2]/e[3,4]", V, "division by a non-scalar form"),
]

DEEP = MAX_NESTING + 1

# (entry point, text, message)
REWORDED = [
    ("form", "r*e[1]", "bad radical token at 'r*e[1]'"),
    ("form", "e[1,,2]", "bad index '' at position 4 in form literal"),
    ("form", "e[a]", "bad index 'a' at position 2 in form literal"),
    ("form", "e[2,]", "bad index '' at position 4 in form literal"),
    ("form", "e[1, x]", "bad index ' x' at position 4 in form literal"),
    ("scalar", "(" * DEEP + "1" + ")" * DEEP,
     "nesting deeper than 100 at position 100 in scalar"),
    ("scalar", "-" * DEEP + "1",
     "nesting deeper than 100 at position 100 in scalar"),
    ("form", "1 + " + "(" * DEEP + "e[1]" + ")" * DEEP,
     "nesting deeper than 100 at position 104 in form literal"),
    ("form", "+" * DEEP + "e[1]",
     "nesting deeper than 100 at position 100 in form literal"),
    ("scalar", "", "expected a scalar factor at position 0, found the end "
     "of the scalar"),
    ("scalar", "1+", "expected a scalar factor at position 2, found the end "
     "of the scalar"),
    ("scalar", "1 2", "trailing input '2' at position 2 in scalar"),
    ("scalar", "1)", "trailing input ')' at position 1 in scalar"),
    ("form", "e[1]*e[1,2]+", "expected a form factor at position 12, found "
     "the end of the form literal"),
    ("form", "e[1]-", "expected a form factor at position 5, found the end "
     "of the form literal"),
    ("form", "e[1]e[2]", "trailing input 'e[2]' at position 4 in form "
     "literal"),
    ("form", "e[1])", "trailing input ')' at position 4 in form literal"),
]


def parse(entry, text):
    return Scalar.parse(text) if entry == "scalar" else parse_form(text, 4)


@pytest.mark.parametrize("text,canonical", SCALARS)
def test_pinned_scalars(text, canonical):
    assert str(Scalar.parse(text)) == canonical


@pytest.mark.parametrize("text,canonical", FORMS)
def test_pinned_forms(text, canonical):
    assert str(parse_form(text, 4)) == canonical


@pytest.mark.parametrize("entry,table", [("scalar", SCALAR_ERRORS),
                                         ("form", FORM_ERRORS)])
def test_pinned_messages(entry, table):
    for text, exc, message in table:
        with pytest.raises(exc) as info:
            parse(entry, text)
        assert str(info.value) == message, text


@pytest.mark.parametrize("entry,text,message", REWORDED)
def test_reworded_messages(entry, text, message):
    with pytest.raises(ValueError) as info:
        parse(entry, text)
    assert str(info.value) == message


def test_nesting_up_to_the_bound_parses():
    deepest = "(" * MAX_NESTING + "1" + ")" * MAX_NESTING
    assert Scalar.parse(deepest) == Scalar.of(1)
    assert Scalar.parse("-" * MAX_NESTING + "1") == Scalar.of(1)
    assert str(parse_form("(" * (MAX_NESTING - 1) + "-e[2]"
                          + ")" * (MAX_NESTING - 1), 4)) == "-e[2]"


def test_long_digit_runs_round_trip():
    # numerators print past Python's int -> str limit (4300 digits by
    # default), and the parser reads them back
    big = Scalar.of(10 ** 5000 - 1) / 7 - Scalar.sqrt(2) * 3 ** 11000
    assert len(str(big)) > 10000
    assert Scalar.parse(str(big)) == big
    assert Scalar.parse("9" * 5000) == Scalar.of(10 ** 5000 - 1)
    f = parse_form("e[1,2] - r3*e[2,4]", 4).scale(big)
    assert parse_form(str(f), 4) == f


@pytest.mark.parametrize("entry,text,message", [
    ("scalar", "\u0661\u0662/\u0663",
     "unexpected character '\u0661' in scalar"),
    ("scalar", "\u00b2", "unexpected character '\u00b2' in scalar"),
    ("scalar", "r\u0662", "bad radical token at 'r\u0662'"),
    ("form", "\u0663*e[1]", "unexpected character '\u0663' in form literal"),
])
def test_only_ascii_digits_are_digits(entry, text, message):
    with pytest.raises(ValueError) as info:
        parse(entry, text)
    assert str(info.value) == message


def test_one_integer_reader():
    # ASCII whitespace, an optional sign and ASCII digits, at any length
    for text, value in (("7", 7), (" 12\t", 12), ("+3", 3), ("-04", -4),
                        ("9" * 5000, 10 ** 5000 - 1)):
        assert integer(text) == value
    for text in ("", " ", "+", "-", "+-1", "1 2", "1_0", "\u0661",
                 "\uff13", "\u00b2", "\u30003", "3\u3000", "\x1c3", "0x3",
                 "3.0"):
        with pytest.raises(ValueError) as info:
            integer(text)
        assert str(info.value) == "invalid integer %r" % text


@pytest.mark.parametrize("entry,text,char", [
    ("scalar", "1\u3000+\x1c2", "\u3000"), ("scalar", "1 +\x1c2", "\x1c"),
    ("scalar", "\xa01", "\xa0"), ("form", "e[1] *\x1fe[2]", "\x1f"),
    ("form", "e[1]\u2003", "\u2003"),
])
def test_only_ascii_whitespace_separates_tokens(entry, text, char):
    # str.isspace() holds for each char, but only ASCII whitespace is read
    assert char.isspace() and char not in WHITESPACE
    with pytest.raises(ValueError) as info:
        parse(entry, text)
    what = "scalar" if entry == "scalar" else "form literal"
    assert str(info.value) == "unexpected character %r in %s" % (char, what)


def test_ascii_whitespace_separates_tokens_everywhere():
    assert str(Scalar.parse(WHITESPACE.join(["1", "+", "2", "*", "r3"]))) \
        == "1 + 2*r3"
    assert str(parse_form(WHITESPACE.join(["e[1]", "*", "e[2]"]), 3)) \
        == "e[1,2]"
    assert integer(WHITESPACE + "12" + WHITESPACE) == 12


@pytest.mark.parametrize("text,index,at", [
    ("e[1_0,2]", "1_0", 2), ("e[\u0661,2]", "\u0661", 2),
    ("e[1,\uff12]", "\uff12", 4), ("e[\u30001]", "\u30001", 2),
    ("e[1 2]", "1 2", 2),
])
def test_form_indices_are_ascii_integers(text, index, at):
    with pytest.raises(ValueError) as info:
        parse_form(text, 10)
    assert str(info.value) == ("bad index %r at position %d in form literal"
                               % (index, at))


def test_pinned_index_spellings_still_parse():
    assert str(parse_form("e[1, 2]", 10)) == "e[1,2]"
    assert str(parse_form("e[ 1 ]", 10)) == "e[1]"
    assert str(parse_form("e[+1]", 10)) == "e[1]"


def test_cli_params_read_long_and_reject_non_ascii_digits(capsys):
    argv = ["dga", "--structure", "su-even:3", "--operator", "nearly-kahler",
            "--params"]
    assert main(argv + ["lambda=%s,mu=0" % ("9" * 5000)]) == 0
    assert capsys.readouterr().err == ""
    assert main(argv + ["lambda=\u0661\u0662,mu=0"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "edsx: bad value for 'lambda': unexpected "
                              "character '\u0661' in scalar\n")
    for value in ("1\u3000+2", "\u30001", "1\u3000"):
        assert main(argv + ["lambda=%s,mu=0" % value]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "edsx: bad value for 'lambda': unexpected "
                                  "character %r in scalar\n" % "\u3000")


PROPERTY = settings(derandomize=True, database=None, max_examples=300,
                    deadline=None)

ALPHABET = "0123456789re[],+-*/() "
PIECES = ["0", "1", "2", "7", "12", "r2", "r3", "r30", "r1", "r", "e[1]",
          "e[2,3]", "e[3,1]", "e[]", "e[", "]", ",", "+", "-", "*", "/",
          "(", ")", " "]
ATOMS = ["0", "1", "3", "12", "r2", "r5", "r30", "e[1]", "e[2,3]", "e[3,1]"]
grammar_text = st.recursive(
    st.sampled_from(ATOMS),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map("".join),
        inner.map("(%s)".__mod__), inner.map("-".__add__)),
    max_leaves=8)
literal_text = st.one_of(
    st.text(alphabet=ALPHABET, max_size=24),
    st.lists(st.sampled_from(PIECES), max_size=12).map("".join),
    grammar_text)


@PROPERTY
@given(literal_text)
def test_scalar_parse_is_total(text):
    try:
        s = Scalar.parse(text)
    except (ValueError, ZeroDivisionError):
        return
    assert Scalar.parse(str(s)) == s


@PROPERTY
@given(literal_text, st.integers(min_value=1, max_value=5))
def test_parse_form_is_total(text, n):
    try:
        f = parse_form(text, n)
    except (ValueError, ZeroDivisionError):
        return
    assert parse_form(str(f), n) == f


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(literal_text)
def test_cli_params_keep_the_exit_contract(text):
    argv = ["dga", "--structure", "su-even:3", "--operator", "nearly-kahler",
            "--params", "lambda=%s,mu=0" % text]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
