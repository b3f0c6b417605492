"""Exact scalars in the real field Q(r2, r3, r5, r7).

A scalar is a finite sum q_d * sqrt(d) over the 16 squarefree divisors d
of 210, with rational q_d.  The text syntax accepted by parse() uses
integer or a/b literals, radical tokens r2, r3, r5, ..., r210, the
operators + - * /, and parentheses: "7/8", "-1/4*r5", "(1 + r2)/2".
Form literals (exterior.parse_form) use the same grammar with e[...]
atoms added, so a scalar literal is a degree-0 form literal.
"""

from __future__ import annotations

import operator
from decimal import Decimal
from fractions import Fraction
from math import gcd

from ._kernel import (
    DIVISORS,
    MASK_OF_DIVISOR,
    s_add,
    s_inv,
    s_mul,
    s_neg,
    s_quotient,
    s_sub,
)


class Scalar:
    """Immutable field element; .c is the kernel scalar (see edsx._kernel):
    a (denominator, {mask: integer numerator}) pair, or None for zero."""

    __slots__ = ("c",)

    def __init__(self, c=None):
        self.c = c

    @classmethod
    def of(cls, q) -> "Scalar":
        """Rational scalar from an int, a rational, or a/b."""
        if type(q) is int:
            return cls(s_quotient(q))
        q = Fraction(q)
        return cls(s_quotient(q.numerator, q.denominator))

    @classmethod
    def sqrt(cls, d: int) -> "Scalar":
        """sqrt(d) for a squarefree divisor d of 210."""
        mask = MASK_OF_DIVISOR.get(d)
        if mask is None:
            raise ValueError("not a squarefree divisor of 210: %r" % (d,))
        return cls((1, {mask: 1}))

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        return _Literal(text).parse()

    def coeffs(self) -> dict:
        """Map divisor -> rational coefficient, nonzero entries only."""
        if not self.c:
            return {}
        den, nums = self.c
        return {DIVISORS[k]: Fraction(x, den) for k, x in sorted(nums.items())}

    def is_zero(self) -> bool:
        return not self.c

    def _coerce(self, other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.of(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(s_add(self.c, o.c))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(s_sub(self.c, o.c))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(s_sub(o.c, self.c))

    def __neg__(self):
        return Scalar(s_neg(self.c))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(s_mul(self.c, o.c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(s_mul(self.c, s_inv(o.c)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(s_mul(o.c, s_inv(self.c)))

    def inverse(self) -> "Scalar":
        return Scalar(s_inv(self.c))

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.c == o.c

    def __hash__(self):
        # a rational scalar equals its Fraction, so it hashes as one
        q = self.coeffs()
        return hash(q.get(1, 0) if q.keys() <= {1} else tuple(q.items()))

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return "Scalar(%r)" % format_scalar(self)


def as_scalar(x) -> Scalar:
    """Coerce an int, rational, string, or Scalar to a Scalar."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, str):
        return _Literal(x).parse()
    return Scalar.of(x)


# the whitespace every literal and integer reader skips: ASCII only, since
# str.isspace() and str.strip() take other scripts' spaces and the
# separators \x1c-\x1f too
WHITESPACE = " \t\n\r\v\f"

# Python refuses int <-> str past sys.get_int_max_str_digits() digits (at
# least 640 wherever the limit is on), so longer integers pass through
# Decimal, which converts them exactly at any length
_SHORT_DIGITS = 600
_SHORT = 10 ** _SHORT_DIGITS


def int_text(k):
    """str(k) for an integer k of any number of digits."""
    return str(k if -_SHORT < k < _SHORT else Decimal(k))


def _int_value(digits):
    """int(digits) for an optional sign and ASCII digits, of any length."""
    return int(digits if len(digits) <= _SHORT_DIGITS else Decimal(digits))


def integer(text):
    """The integer of text, ASCII whitespace around an optional sign and
    ASCII digits; underscores or other scripts' digits raise ValueError."""
    body = text.strip(WHITESPACE)
    digits = body[1:] if body[:1] in ("+", "-") else body
    if not digits or digits.strip("0123456789"):
        raise ValueError("invalid integer %r" % text)
    return _int_value(body)


def ratio_text(n, d):
    """str(Fraction(n, d)) for integers n and d > 0, at any number of digits."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    n = int_text(n)
    return n if d == 1 else "%s/%s" % (n, int_text(d))


def _term_text(divisor, x, den):
    if divisor == 1:
        return ratio_text(x, den)
    if x == den:
        return "r%d" % divisor
    if x == -den:
        return "-r%d" % divisor
    return "%s*r%d" % (ratio_text(x, den), divisor)


def format_scalar(s: Scalar) -> str:
    """Canonical text form, sorted by divisor; parses back exactly."""
    if not s.c:
        return "0"
    den, nums = s.c
    parts = []
    for k in sorted(nums):
        parts.append(_term_text(DIVISORS[k], nums[k], den))
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


# ---------------------------------------------------------------- literals

MAX_NESTING = 100

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}


class _Literal:
    """The literal grammar, read by recursive descent:

        expr := term (("+" | "-") term)*
        term := factor (("*" | "/") factor)*
        factor := ("+" | "-") factor | "(" expr ")" | int | radical

    Signs and parentheses nest at most MAX_NESTING deep, so deep input is a
    ValueError long before Python's recursion limit.  Forms subclass this
    in exterior, adding e[...] atoms through _other, _atom and _apply.
    """

    what = noun = "scalar"

    def __init__(self, text):
        self.text = text
        self.toks, self.at, self.end, self.pos = [], [], [], 0
        i, end = 0, len(text)
        while i < end:
            ch = text[i]
            if ch in WHITESPACE:
                i += 1
                continue
            self.at.append(i)
            j = i + 1
            if ch in "+-*/()":
                tok = ch
            elif "0" <= ch <= "9" or ch == "r" and "0" <= text[j:j + 1] <= "9":
                # ASCII digits only: str.isdigit() takes other scripts' too
                while j < end and "0" <= text[j] <= "9":
                    j += 1
                tok = (("int", _int_value(text[i:j])) if ch != "r"
                       else ("rad", _int_value(text[i + 1:j])))
            else:
                tok, j = self._other(text, i)
            self.toks.append(tok)
            self.end.append(j)
            i = j
        self.toks.append(None)

    def _other(self, text, i):
        """(token, end) of a word starting at i that no other rule reads."""
        if text[i] == "r":
            raise ValueError("bad radical token at %r" % text[i:])
        raise ValueError("unexpected character %r in %s" % (text[i], self.what))

    def parse(self):
        v = self._expr(0)
        if self.toks[self.pos] is not None:
            at = self.at[self.pos]
            raise ValueError("trailing input %r at position %d in %s"
                             % (self.text[at:self.end[self.pos]], at,
                                self.what))
        return v

    def _expr(self, depth):
        v = self._term(depth)
        while self.toks[self.pos] in ("+", "-"):
            self.pos += 1
            v = self._apply(self.toks[self.pos - 1], v, self._term(depth))
        return v

    def _term(self, depth):
        v = self._factor(depth)
        while self.toks[self.pos] in ("*", "/"):
            self.pos += 1
            v = self._apply(self.toks[self.pos - 1], v, self._factor(depth))
        return v

    def _factor(self, depth):
        t = self.toks[self.pos]
        self.pos += 1
        if isinstance(t, tuple):
            return self._atom(*t)
        if t is None:
            raise ValueError("expected a %s factor at position %d, found "
                             "the end of the %s"
                             % (self.noun, len(self.text), self.what))
        if t not in ("(", "-", "+"):
            raise ValueError("expected a %s factor, got %r" % (self.noun, t))
        if depth == MAX_NESTING:
            raise ValueError("nesting deeper than %d at position %d in %s"
                             % (MAX_NESTING, self.at[self.pos - 1], self.what))
        if t != "(":
            v = self._factor(depth + 1)
            return -v if t == "-" else v
        v = self._expr(depth + 1)
        if self.toks[self.pos] != ")":
            raise ValueError("unbalanced parenthesis in %s" % self.what)
        self.pos += 1
        return v

    def _atom(self, kind, val):
        if kind == "int":
            return Scalar.of(val)
        if not MASK_OF_DIVISOR.get(val):
            raise ValueError("r%d is not a squarefree divisor of 210" % val)
        return Scalar.sqrt(val)

    def _apply(self, op, a, b):
        return _ARITH[op](a, b)
