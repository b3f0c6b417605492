"""Exact verification of benchmark outputs, run outside the timed region.

The pinned values below are transcribed from edsx.papercheck, not imported
from it, so a change to the package cannot move them.  Where the seed picks
a flag, a hyperplane or a random input, identities are checked instead.
"""

import json

from edsx.exterior import contract, hodge, parse_form, wedge
from edsx.linalg import Matrix, rank
from edsx.scalar import Scalar

# "dim Z'" column of papercheck.RESTRICTION_BATTERY; the package reports it
# as ZReport.z_dim and as surjectivity_dims[0].  It does not depend on the
# operator's parameters nor on the hyperplane a restriction uses.
Z_DIM = {"su-even:3": 174, "su-odd:2": 90, "su-odd:3": 252,
         "su-odd:4": 540, "psu3": 442, "psu3-dual": 484, "so3-9": 529}

# RESTRICTION_BATTERY rows for the zero operator at the default hyperplane
# (coordinates 1..7): (dim Z', projection dim, dim Z'_W), onto
RESTRICTION_DEFAULT = {"psu3": ((442, 324, 308), True),
                       "psu3-dual": ((484, 343, 336), True)}
DEFAULT_DROP = 8

# check_rotation_triple: T (x) g-perp has 25 components and dim 297
CASIMIR = {("so3-9", "t-gperp"): (25, 297)}

# STABILITY_CASES and check_dual_hyperplanes
STABLE_ORBIT = {("psu3", "rho"): 56}
UNSTABLE_GOOD_HYPERPLANES = {("so3-9", "star-gamma"): {1, 2, 4, 5, 6, 8}}

# flag_test on psu3: c(8) is the rank of the full polar system, which is the
# orbit dimension 56 of rho (STABILITY_CASES); codim Z_0 = 8^3 - dim Z'
# (RESTRICTION_BATTERY) = 70.  Neither depends on the flag.
FLAG_INVARIANTS = {"psu3": (56, 8 ** 3 - 442)}


def canonical(kind, out):
    """Text that identifies an output exactly, for digests."""
    if kind in ("check_operator", "z_spaces", "restrict", "flag_test",
                "stability"):
        return json.dumps(out.to_json(), sort_keys=True)
    if kind == "casimir":
        return "%r kappa=%s" % (out, out.kappa)
    if kind in ("scalar_parse", "form_parse"):
        return out[1]
    return str(out)


def problems(q, inputs, out):
    """Failed checks of one query's output; empty when it is correct."""
    return _CHECKS[q["kind"]](q, inputs, out)


def _expect(bad, cond, text):
    if not cond:
        bad.append(text)


def _check_operator(q, inputs, out):
    bad = []
    _expect(bad, out.all_ok(), "Leibniz, f^2 = 0 or extension failed")
    return bad


def _z_spaces(q, inputs, out):
    bad = []
    _expect(bad, out.z_dim == Z_DIM[q["structure"]],
            "dim Z' = %s, pinned %d" % (out.z_dim, Z_DIM[q["structure"]]))
    if q["op"] != "zero":
        # the unitary families are strongly admissible at any parameters
        _expect(bad, out.z_doubleprime_dim == 0,
                "dim Z'' = %s, want 0" % (out.z_doubleprime_dim,))
    return bad


def _restrict(q, inputs, out):
    bad = []
    name = q["structure"]
    _expect(bad, out.surjectivity_dims[0] == Z_DIM[name],
            "dim Z' = %s, pinned %d" % (out.surjectivity_dims[0],
                                        Z_DIM[name]))
    if q["drop"] == DEFAULT_DROP:
        dims, onto = RESTRICTION_DEFAULT[name]
        _expect(bad, tuple(out.surjectivity_dims) == dims
                and out.projection_onto == onto,
                "dims %s onto %s, pinned %s onto %s"
                % (out.surjectivity_dims, out.projection_onto, dims, onto))
    return bad


def _flag_test(q, inputs, out):
    bad = []
    c = out.c_values
    c_n, codim = FLAG_INVARIANTS[q["structure"]]
    _expect(bad, list(out.flag) == q["flag"], "report is for another flag")
    _expect(bad, len(c) == len(q["flag"]) + 1 and c[0] == 0,
            "c values %s do not start at c(0) = 0" % (c,))
    _expect(bad, all(a <= b for a, b in zip(c, c[1:])),
            "c values %s decrease" % (c,))
    _expect(bad, c[-1] == c_n, "c(n) = %d, pinned %d" % (c[-1], c_n))
    _expect(bad, out.codim_z0 == codim,
            "codim Z_0 = %d, pinned %d" % (out.codim_z0, codim))
    return bad


def _casimir(q, inputs, out):
    want = CASIMIR[(q["structure"], q["space"])]
    got = (out.components, out.dim)
    return [] if got == want else ["components, dim = %s, pinned %s"
                                   % (got, want)]


def _stability(q, inputs, out):
    bad = []
    key = (q["structure"], q["generator"])
    if key in STABLE_ORBIT:
        _expect(bad, out.stable and out.orbit_dim == STABLE_ORBIT[key],
                "orbit dim %d stable %s, pinned %d stable"
                % (out.orbit_dim, out.stable, STABLE_ORBIT[key]))
    else:
        good = {i for i, v in out.per_hyperplane.items() if v}
        want = UNSTABLE_GOOD_HYPERPLANES[key]
        _expect(bad, not out.stable and good == want,
                "E-stable hyperplanes %s, pinned %s" % (sorted(good),
                                                        sorted(want)))
    return bad


def _rank(q, inputs, out):
    bad = []
    rows = inputs
    nrows, ncols = len(rows), len(rows[0])
    _expect(bad, 0 <= out <= min(nrows, ncols), "rank %d out of range" % out)
    cols = [[rows[i][j] for i in range(nrows)] for j in range(ncols)]
    r_t = rank(Matrix.from_rows(cols))
    _expect(bad, out == r_t, "rank(M) = %d but rank(M^T) = %d" % (out, r_t))
    if q["planted"]:
        # the last row is a combination of two others
        r_top = rank(Matrix.from_rows(rows[:-1]))
        _expect(bad, out == r_top,
                "rank %d, %d without the dependent row" % (out, r_top))
    return bad


def _div_chain(q, inputs, out):
    bad = []
    a, divisors = inputs
    back = out
    one = Scalar.of(1)
    for b in divisors:
        back = back * b
        _expect(bad, b * b.inverse() == one, "b * b^-1 != 1 for %s" % b)
    _expect(bad, back == a, "(a / b...) * b... != a")
    return bad


def _hodge(q, inputs, out):
    a = inputs
    if a.is_zero():
        return [] if out.is_zero() else ["hodge(hodge(0)) != 0"]
    p = a.degree
    sign = -1 if (p * (a.n - p)) % 2 else 1
    return [] if out == a.scale(Scalar.of(sign)) else [
        "hodge(hodge(a)) != %+d a" % sign]


def _wedge_contract(q, inputs, out):
    a, b, v = inputs
    sign = Scalar.of(-1 if q["p"] % 2 else 1)
    right = wedge(contract(v, a), b) + wedge(a, contract(v, b)).scale(sign)
    return [] if out == right else ["v -| (a ^ b) breaks the Leibniz rule"]


def _scalar_parse(q, inputs, out):
    bad = []
    s, text = out
    got = {str(d): str(c) for d, c in s.coeffs().items()}
    _expect(bad, got == q["expect"],
            "parsed %s, generator expects %s" % (got, q["expect"]))
    _expect(bad, Scalar.parse(text) == s, "format then parse changes %s" % s)
    return bad


def _form_parse(q, inputs, out):
    bad = []
    f, text = out
    got = {",".join(map(str, idx)):
           {str(d): str(c) for d, c in coeff.coeffs().items()}
           for idx, coeff in f.terms.items()}
    _expect(bad, got == q["expect"],
            "parsed %s, generator expects %s" % (got, q["expect"]))
    _expect(bad, parse_form(text, q["n"]) == f,
            "format then parse changes %s" % text)
    return bad


_CHECKS = {
    "check_operator": _check_operator, "z_spaces": _z_spaces,
    "restrict": _restrict, "flag_test": _flag_test, "casimir": _casimir,
    "stability": _stability, "rank": _rank, "div_chain": _div_chain,
    "hodge": _hodge, "wedge_contract": _wedge_contract,
    "scalar_parse": _scalar_parse, "form_parse": _form_parse,
}
