"""Seeded query lists for the edsx benchmark.

This module never imports edsx: it builds plain JSON-able queries (structure
names, parameter and form literals as text, expected coefficients as
strings), so the package under test receives only generated inputs and a
change to the package cannot change what is asked of it.

The same (workload, seed) always gives the same list; digest() fingerprints
it so two sets of runs can be shown to have run the same inputs.
"""

import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("operators", "radical", "field")

# Reserved for checking a claimed gain on a seed that was not used while the
# change was written; do not tune against it.
HOLDOUT_SEED = 906_117

# squarefree divisors of 210, the radicals of Q(r2, r3, r5, r7)
DIVISORS = (1, 2, 3, 5, 6, 7, 10, 14, 15, 21, 30, 35, 42, 70, 105, 210)
PRIMES = (2, 3, 5, 7)

# (structure, operator) pairs of the unitary families in `operators`
FAMILIES = (
    ("su-even:3", "nearly-kahler"),
    ("su-odd:2", "A"), ("su-odd:2", "B"),
    ("su-odd:3", "A"), ("su-odd:3", "B"), ("su-odd:3", "D"),
    ("su-odd:4", "A"), ("su-odd:4", "B"),
)


def generate(workload, seed):
    """The query list of one workload at one seed."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % (workload,))
    rng = random.Random("%s:%d" % (workload, seed))
    queries = _GENERATORS[workload](rng)
    rng.shuffle(queries)
    return queries


def structures(workload):
    """Catalog structures a workload builds during set-up."""
    return {
        "operators": sorted({name for name, _ in FAMILIES}),
        "radical": ["psu3", "psu3-dual", "so3-9"],
        "field": [],
    }[workload]


def digest(queries):
    text = json.dumps(queries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------- scalars


def _coeff_text(q):
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (
        q.numerator, q.denominator)


def _scalar_text(coeffs, rng=None):
    """Literal for {divisor: Fraction}; rng varies the spelling."""
    if not coeffs:
        return "0"
    parts = []
    for d, q in sorted(coeffs.items()):
        mag = abs(q)
        if d == 1:
            body = _coeff_text(mag)
        elif mag == 1:
            body = "r%d" % d
        elif rng is not None and rng.random() < 0.3:
            body = "r%d*%s" % (d, _coeff_text(mag))
        else:
            body = "%s*r%d" % (_coeff_text(mag), d)
        parts.append(("-" if q < 0 else "+", body))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += " %s %s" % (sign, body)
    return out


def _rand_rat(rng, lo=-9, hi=9, den=8):
    while True:
        q = Fraction(rng.randint(lo, hi), rng.randint(1, den))
        if q:
            return q


def _rand_coeffs(rng, radical_terms, divisors=PRIMES, zero_ok=True):
    """A random {divisor: Fraction}: a rational part plus radical terms."""
    out = {}
    if not zero_ok or rng.random() < 0.8:
        out[1] = _rand_rat(rng)
    for d in rng.sample(divisors, radical_terms):
        out[d] = _rand_rat(rng, -3, 3, 3)
    return out


def _encode(coeffs):
    return {str(d): str(q) for d, q in sorted(coeffs.items()) if q}


def _add_scaled(acc, coeffs, s):
    for d, q in coeffs.items():
        v = acc.get(d, 0) + s * q
        if v:
            acc[d] = v
        else:
            acc.pop(d, None)


# ---------------------------------------------------------------- forms


def _rand_form(rng, n, p, terms):
    """(literal, {index string: encoded coefficient}) for a random p-form."""
    expected = {}
    pieces = []
    for _ in range(terms):
        idx = sorted(rng.sample(range(1, n + 1), p))
        coeffs = _rand_coeffs(rng, rng.randint(0, 1), zero_ok=False)
        sign = 1
        if p > 1 and rng.random() < 0.25:
            idx.reverse()
            sign = -1 if (p * (p - 1) // 2) % 2 else 1
        ctext = _scalar_text(coeffs, rng)
        if len(coeffs) > 1:
            ctext = "(%s)" % ctext
        pieces.append("%s*e[%s]" % (ctext, ",".join(map(str, idx))))
        key = ",".join(map(str, sorted(idx)))
        cur = dict(expected.get(key, {}))
        _add_scaled(cur, coeffs, sign)
        expected[key] = cur
    text = " + ".join(pieces)
    return text, {k: _encode(v) for k, v in expected.items() if v}


# ---------------------------------------------------------------- workloads


def _param_text(rng, radical):
    # one prime radical at most, so every seed asks for the same kind of work
    if not radical:
        return _coeff_text(_rand_rat(rng, -5, 5, 4))
    return _scalar_text(_rand_coeffs(rng, 1, zero_ok=False), rng)


def _operators(rng):
    # every family at one rational and one radical (lambda, mu), each asked
    # twice: is the operator a derivation, and what are its Z spaces
    out = []
    for name, op in FAMILIES:
        for radical in (False, True):
            params = {"lambda": _param_text(rng, radical),
                      "mu": _param_text(rng, radical)}
            for kind in ("check_operator", "z_spaces"):
                out.append({"kind": kind, "structure": name, "op": op,
                            "params": params})
    return out


def _radical(rng):
    out = []
    for name in ("psu3", "psu3-dual"):
        # the default hyperplane (pinned by the restriction battery) and one
        # seed-chosen other coordinate hyperplane
        for drop in (8, rng.randint(1, 7)):
            out.append({"kind": "restrict", "structure": name,
                        "drop": drop})
    # 22 flag tests make 30 queries: the median latency then falls among
    # the flag tests, and the 90th percentile in the middle of the two
    # default-hyperplane restrictions, whatever the number of children
    for _ in range(22):
        flag = list(range(1, 9))
        rng.shuffle(flag)
        out.append({"kind": "flag_test", "structure": "psu3", "flag": flag})
    out.append({"kind": "z_spaces", "structure": "so3-9", "op": "zero",
                "params": None})
    out.append({"kind": "casimir", "structure": "so3-9",
                "space": "t-gperp"})
    out.append({"kind": "stability", "structure": "psu3",
                "generator": "rho"})
    out.append({"kind": "stability", "structure": "so3-9",
                "generator": "star-gamma"})
    return out


FIELD_COUNTS = {"rank": 400, "div_chain": 600, "hodge": 500,
                "wedge_contract": 500, "scalar_parse": 750,
                "form_parse": 500}

# The cost of a rank grows steeply with its shape, with the number of
# primes under its radicals and with where the radicals and zeros sit, so
# those follow a fixed pattern per query index and every seed gets the same
# classes; the seed picks the primes and the coefficients.  With all four
# primes the cost of one 6x6 rank swings by a factor of several with its
# coefficients, which made run_s depend on the seed; three primes still
# give radical spans of 8.
RANK_SHAPES = [(r, c) for r in range(2, 7) for c in range(2, 7)]
RANK_MAX_PRIMES = 3


def _rank_query(rng, k):
    nrows, ncols = RANK_SHAPES[k % len(RANK_SHAPES)]
    primes = rng.sample(PRIMES, (k // len(RANK_SHAPES)) % (RANK_MAX_PRIMES + 1))

    def entry(i, j):
        if (3 * i + 5 * j + k) % 7 == 0:
            return {}
        out = {1: _rand_rat(rng)}
        if primes and (i + j + k) % 5:
            out[primes[(i + 2 * j) % len(primes)]] = _rand_rat(rng, -3, 3, 3)
        return out

    rows = [[entry(i, j) for j in range(ncols)] for i in range(nrows)]
    planted = nrows >= 3 and k % 3 == 0
    if planted:
        # last row = q1 * row a + q2 * row b: rank(M) = rank(M minus it)
        a, b = rng.sample(range(nrows - 1), 2)
        q1, q2 = _rand_rat(rng, -4, 4, 3), _rand_rat(rng, -4, 4, 3)
        last = []
        for j in range(ncols):
            cell = {}
            _add_scaled(cell, rows[a][j], q1)
            _add_scaled(cell, rows[b][j], q2)
            last.append(cell)
        rows[-1] = last
    return {"kind": "rank", "rows": [[_scalar_text(c, rng) for c in r]
                                     for r in rows],
            "planted": planted}


def _nonzero_text(rng):
    return _scalar_text(_rand_coeffs(rng, rng.randint(0, 2),
                                     zero_ok=False), rng)


def _field(rng):
    out = []
    for k in range(FIELD_COUNTS["rank"]):
        out.append(_rank_query(rng, k))
    for _ in range(FIELD_COUNTS["div_chain"]):
        out.append({"kind": "div_chain", "a": _nonzero_text(rng),
                    "by": [_nonzero_text(rng)
                           for _ in range(rng.randint(2, 4))]})
    for _ in range(FIELD_COUNTS["hodge"]):
        n = rng.randint(2, 7)
        text, _ = _rand_form(rng, n, rng.randint(1, n - 1), rng.randint(1, 4))
        out.append({"kind": "hodge", "n": n, "form": text})
    for _ in range(FIELD_COUNTS["wedge_contract"]):
        n = rng.randint(3, 7)
        p = rng.randint(1, n - 2)
        q = rng.randint(1, n - p)
        a, _ = _rand_form(rng, n, p, rng.randint(1, 3))
        b, _ = _rand_form(rng, n, q, rng.randint(1, 3))
        v = [_scalar_text(_rand_coeffs(rng, 0), rng) for _ in range(n)]
        out.append({"kind": "wedge_contract", "n": n, "a": a, "b": b,
                    "p": p, "v": v})
    for _ in range(FIELD_COUNTS["scalar_parse"]):
        coeffs = _rand_coeffs(rng, rng.randint(0, 3), DIVISORS[1:])
        out.append({"kind": "scalar_parse", "text": _scalar_text(coeffs, rng),
                    "expect": _encode(coeffs)})
    for _ in range(FIELD_COUNTS["form_parse"]):
        n = rng.randint(2, 8)
        text, expect = _rand_form(rng, n, rng.randint(1, n), rng.randint(1, 4))
        out.append({"kind": "form_parse", "n": n, "text": text,
                    "expect": expect})
    return out


_GENERATORS = {"operators": _operators, "radical": _radical,
               "field": _field}
