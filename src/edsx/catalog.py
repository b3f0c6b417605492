"""Built-in structures: Lie algebra bases, invariant forms, flags, operators.

Each structure bundles an ambient dimension, a Lie algebra represented by
matrices, a named set of generating invariant forms, a default coordinate
flag, and a family of degree-raising operators on the generators.  The
builders write each basis matrix as sparse rows {column: kernel scalar}
(see edsx.rep); structure_to_json prints them dense.  All data is
validated once, on construction: the algebra closes under brackets and
every generator is annihilated by every basis matrix.
"""

from itertools import permutations

from ._kernel import s_neg, s_quotient
from .scalar import Scalar, as_scalar, integer
from .exterior import (Form, _sort_sign, derivation_images, form_literal,
                       hodge, parse_form, wedge)
from .rep import LieRep, action_index, stabilizer

__all__ = [
    "CatalogError",
    "ParamForm",
    "DiffOpSpec",
    "StructureSpec",
    "structure_names",
    "parse_structure_name",
    "get_structure",
    "structure_to_json",
]

STRUCTURE_NAMES = (
    "su-even",
    "su-odd",
    "psu3",
    "psu3-dual",
    "so3-9",
    "g2",
    "spin7",
    "sp2sp1",
    "example-712",
)


class CatalogError(ValueError):
    pass


class ParamForm:
    """A form with coefficients affine in named scalar parameters.

    Stored as a map from parameter name (or None for the constant part) to a
    Form; DiffOpSpec.instantiate evaluates const + sum(params[k] * part[k]).
    """

    __slots__ = ("n", "parts")

    def __init__(self, n, parts):
        self.n = n
        self.parts = dict(parts)
        for key, form in self.parts.items():
            if form.n != n:
                raise CatalogError("parameter part %r has mismatched ambient dimension" % (key,))

    def degree(self):
        """Common degree of all nonzero parts, or None if all are zero."""
        deg = None
        for form in self.parts.values():
            d = form.degree
            if d is None:
                continue
            if deg is None:
                deg = d
            elif deg != d:
                raise CatalogError("parameter parts have mixed degrees")
        return deg

    def params(self):
        return sorted(k for k in self.parts if k is not None)


class DiffOpSpec:
    """A named operator given by its values on the structure's generators."""

    __slots__ = ("name", "params", "values")

    def __init__(self, name, params, values):
        self.name = name
        self.params = tuple(params)
        self.values = dict(values)
        for gen, pf in self.values.items():
            for p in pf.params():
                if p not in self.params:
                    raise CatalogError(
                        "operator %r uses undeclared parameter %r" % (name, p))

    def instantiate(self, assignment):
        """Map generator name -> Form at a full parameter assignment."""
        assignment = dict(assignment or {})
        unknown = set(assignment) - set(self.params)
        if unknown:
            raise CatalogError("unknown parameters %s for operator %r"
                               % (sorted(unknown), self.name))
        for p in self.params:
            if p not in assignment:
                raise CatalogError("operator %r needs parameter %r" % (self.name, p))
        # parse each value once, in order of use, and none that no part uses
        used = dict.fromkeys(k for pf in self.values.values()
                             for k in pf.parts if k is not None)
        scalars = {k: as_scalar(assignment[k]) for k in used}
        return {gen: sum((f if k is None else f.scale(scalars[k])
                          for k, f in pf.parts.items()), Form.zero(pf.n))
                for gen, pf in self.values.items()}


class StructureSpec:
    """A fully instantiated catalog structure; read-only after construction.

    lie_images maps each generator g, by name, to {mask of K: {u: e^K
    coefficient of X_u . g}} over the basis X_u of lie, kept from
    validation, check_invariance or not; it is empty for an invariant g.
    The _analysis slot starts empty; edsx.dga.analysis fills it on the first
    query with the invariants that every query of the structure shares.
    """

    __slots__ = ("name", "n", "lie", "generators", "default_flag", "operators",
                 "lie_images", "_analysis")

    def __init__(self, name, n, lie, generators, default_flag, operators,
                 check_invariance=True):
        self.name = name
        self.n = n
        self.lie = lie
        self.generators = dict(generators)
        self.default_flag = tuple(default_flag)
        self.operators = dict(operators)
        self._analysis = None
        self._validate(check_invariance)

    def _validate(self, check_invariance):
        if sorted(self.default_flag) != list(range(1, self.n + 1)):
            raise CatalogError("default flag of %r is not a permutation of 1..%d"
                               % (self.name, self.n))
        if self.lie.n != self.n:
            raise CatalogError("Lie algebra of %r acts in the wrong dimension" % self.name)
        self.lie.validate()
        index = action_index(self.lie.basis, self.n)
        self.lie_images = {}
        for gname, form in self.generators.items():
            if form.n != self.n:
                raise CatalogError("generator %r has wrong ambient dimension" % gname)
            if form.is_zero():
                raise CatalogError("generator %r is zero" % gname)
            images = self.lie_images[gname] = dict(
                derivation_images(form, index))
            if check_invariance and images:
                raise CatalogError("generator %r of %r is not invariant"
                                   % (gname, self.name))
        degs = {g: f.degree for g, f in self.generators.items()}
        for op in self.operators.values():
            for gname, pf in op.values.items():
                if gname not in self.generators:
                    raise CatalogError("operator %r assigns a value to unknown generator %r"
                                       % (op.name, gname))
                d = pf.degree()
                if d is not None and d != degs[gname] + 1:
                    raise CatalogError(
                        "operator %r does not raise the degree of %r by one"
                        % (op.name, gname))


def _su_real_basis(n, size):
    """Basis of su(n) acting on R^{2n} through the pairing (e_{2k-1}, e_{2k}),
    as size x size matrices, trivially on the coordinates past 2n.

    A complex entry a+bi becomes the 2x2 block [[a, -b], [b, a]].
    """
    mats = []

    def real_mat(entries):
        m = [{} for _ in range(size)]
        for (k, l), (a, b) in entries.items():
            aa, bb = s_quotient(a), s_quotient(b)
            for i, j, c in ((2 * k, 2 * l, aa), (2 * k, 2 * l + 1, s_neg(bb)),
                            (2 * k + 1, 2 * l, bb), (2 * k + 1, 2 * l + 1, aa)):
                if c:
                    m[i][j] = c
        return m

    for k in range(n):
        for l in range(k + 1, n):
            mats.append(real_mat({(k, l): (1, 0), (l, k): (-1, 0)}))
            mats.append(real_mat({(k, l): (0, 1), (l, k): (0, 1)}))
    for k in range(n - 1):
        mats.append(real_mat({(k, k): (0, 1), (k + 1, k + 1): (0, -1)}))
    return mats


def _kahler_form(n, amb):
    f = Form.zero(amb)
    one = Scalar.of(1)
    for k in range(1, n + 1):
        f = f + Form.monomial(amb, (2 * k - 1, 2 * k), one)
    return f


def _complex_volume(n, amb):
    """Real and imaginary parts of (e^1 + ie^2)...(e^{2n-1} + ie^{2n})."""
    one = Scalar.of(1)
    re = Form.monomial(amb, (1,), one)
    im = Form.monomial(amb, (2,), one)
    for k in range(2, n + 1):
        a = Form.monomial(amb, (2 * k - 1,), one)
        b = Form.monomial(amb, (2 * k,), one)
        re, im = wedge(re, a) - wedge(im, b), wedge(re, b) + wedge(im, a)
    return re, im


GAMMA_LITERAL = (
    "1/4*r5*(-e[2,5,8,9]+e[1,2,4,9]-e[1,6,8,9]+e[4,5,6,9])"
    " - (e[1,3,5,7]+e[1,2,5,6]) + 7/8*e[3,4,7,8]"
    " + 1/8*r35*(-e[3,6,8,9]-e[2,7,8,9]+e[4,6,7,9]+e[2,3,4,9])"
    " - 1/2*e[1,4,5,8] + 1/8*e[2,3,6,7]"
    " + 3/8*(e[3,4,5,6]+e[5,6,7,8]-e[2,4,6,8]-e[2,4,5,7]"
    "-e[2,3,5,8]-e[1,4,6,7]-e[1,3,6,8]+e[1,2,7,8]+e[1,2,3,4])"
)

# The second summand is plausibly misprinted with a repeated e^1 factor; the
# corrected variant replaces it by e^2 and is the one the Killing-form oracle
# and the stabilizer test single out.  Both are kept.
RHO_CORRECTED_LITERAL = (
    "e[1,2,3] + 1/2*(e[1,4,7]-e[1,5,6]) + 1/2*(e[2,4,6]+e[2,5,7])"
    " + 1/2*(e[3,4,5]-e[3,6,7]) + 1/2*r3*(e[4,5,8]+e[6,7,8])"
)
RHO_PRINTED_LITERAL = (
    "e[1,2,3] + 1/2*(e[1,4,7]-e[1,5,6]) + 1/2*(e[1,4,6]+e[1,5,7])"
    " + 1/2*(e[3,4,5]-e[3,6,7]) + 1/2*r3*(e[4,5,8]+e[6,7,8])"
)

PHI_G2_LITERAL = (
    "e[1,2,3]+e[1,4,5]+e[1,6,7]+e[2,4,6]-e[2,5,7]-e[3,4,7]-e[3,5,6]"
)

CAYLEY_LITERAL = (
    "e[1,2,3,4]+e[1,2,5,6]+e[1,2,7,8]+e[1,3,5,7]-e[1,3,6,8]-e[1,4,5,8]"
    "-e[1,4,6,7]-e[2,3,5,8]-e[2,3,6,7]-e[2,4,5,7]+e[2,4,6,8]"
    "+e[3,4,5,6]+e[3,4,7,8]+e[5,6,7,8]"
)

# Totally antisymmetric su(3) structure constants on the Gell-Mann basis.
_SU3_F = {
    (1, 2, 3): "1",
    (1, 4, 7): "1/2",
    (1, 5, 6): "-1/2",
    (2, 4, 6): "1/2",
    (2, 5, 7): "1/2",
    (3, 4, 5): "1/2",
    (3, 6, 7): "-1/2",
    (4, 5, 8): "1/2*r3",
    (6, 7, 8): "1/2*r3",
}


def _psu3_lie():
    """su(3) acting on itself; basis vector a acts by [u_a, -], the matrix
    of u_a holding -f_abc at row c and column b."""
    mats = [[{} for _ in range(8)] for _ in range(8)]
    for key, text in _SU3_F.items():
        f = as_scalar(text).c
        for a, b, c in permutations(key):
            sign = _sort_sign((a, b, c))[1]
            mats[a - 1][c - 1][b - 1] = f if sign < 0 else s_neg(f)
    return LieRep("psu3", 8, mats)


def _so39_lie():
    r2 = Scalar.sqrt(2)
    r5 = Scalar.sqrt(5)
    r7 = Scalar.sqrt(7)
    two = Scalar.of(2)
    three = Scalar.of(3)

    def mat(entries):
        m = [{} for _ in range(9)]
        for (i, j), v in entries.items():
            m[i - 1][j - 1] = v.c
        return m

    h = mat({(1, 5): -two * two * r2, (2, 6): -three * r2, (3, 7): -two * r2,
             (4, 8): -r2, (5, 1): two * two * r2, (6, 2): three * r2,
             (7, 3): two * r2, (8, 4): r2})
    x = mat({(1, 2): two, (2, 1): -two, (2, 3): r7, (3, 2): -r7,
             (3, 4): three, (4, 3): -three, (4, 9): two * r5, (9, 4): -two * r5,
             (5, 6): two, (6, 5): -two, (6, 7): r7, (7, 6): -r7,
             (7, 8): three, (8, 7): -three})
    y = mat({(1, 6): -two, (6, 1): two, (2, 5): -two, (5, 2): two,
             (2, 7): -r7, (7, 2): r7, (3, 6): -r7, (6, 3): r7,
             (3, 8): -three, (8, 3): three, (4, 7): -three, (7, 4): three,
             (8, 9): two * r5, (9, 8): -two * r5})

    lie = LieRep("so3-9", 9, [h, x, y])
    # bracket table [H,X] = sqrt2 Y, [H,Y] = -sqrt2 X, [X,Y] = sqrt2 H
    c = lie.structure_constants()
    if (c[0, 1], c[0, 2], c[1, 2]) != ({2: r2.c}, {1: (-r2).c}, {0: r2.c}):
        raise CatalogError("so3-9 matrices do not satisfy the expected brackets")
    return lie


def _even_flag(n):
    return tuple(range(1, 2 * n, 2)) + tuple(range(2, 2 * n + 1, 2))


def _odd_flag(n):
    odds = tuple(range(1, 2 * n, 2))
    evens = tuple(range(2, 2 * n - 1, 2))
    return odds + evens + (2 * n + 1, 2 * n)


def _zero_op():
    return DiffOpSpec("zero", (), {})


def _build_su_even(n):
    if not 2 <= n <= 4:
        raise CatalogError("su-even supports 2 <= n <= 4")
    amb = 2 * n
    lie = LieRep("su(%d)" % n, amb, _su_real_basis(n, amb))
    f = _kahler_form(n, amb)
    om_p, om_m = _complex_volume(n, amb)
    gens = {"F": f, "omega-plus": om_p, "omega-minus": om_m}
    ops = {"zero": _zero_op()}
    if n == 3:
        ff = wedge(f, f)
        third = Scalar.of(2) / 3
        ops["nearly-kahler"] = DiffOpSpec(
            "nearly-kahler", ("lambda", "mu"),
            {
                "F": ParamForm(amb, {"lambda": om_p, "mu": om_m}),
                "omega-plus": ParamForm(amb, {"mu": ff.scale(third)}),
                "omega-minus": ParamForm(amb, {"lambda": ff.scale(-third)}),
            })
    return StructureSpec("su-even:%d" % n, amb, lie, gens, _even_flag(n), ops)


def _build_su_odd(n):
    if not 2 <= n <= 4:
        raise CatalogError("su-odd supports 2 <= n <= 4")
    amb = 2 * n + 1
    lie = LieRep("su(%d)" % n, amb, _su_real_basis(n, amb))
    alpha = Form.monomial(amb, (amb,), Scalar.of(1))
    f = _kahler_form(n, amb)
    om_p, om_m = _complex_volume(n, amb)
    gens = {"alpha": alpha, "F": f, "omega-plus": om_p, "omega-minus": om_m}
    a_f = wedge(alpha, f)
    a_p = wedge(alpha, om_p)
    a_m = wedge(alpha, om_m)
    nn = Scalar.of(n)
    ops = {
        "zero": _zero_op(),
        "A": DiffOpSpec("A", ("lambda", "mu"), {
            "F": ParamForm(amb, {"lambda": a_f.scale(Scalar.of(2))}),
            "omega-plus": ParamForm(amb, {"lambda": a_p.scale(nn),
                                          "mu": a_m.scale(nn)}),
            "omega-minus": ParamForm(amb, {"lambda": a_m.scale(nn),
                                           "mu": a_p.scale(-nn)}),
        }),
        "B": DiffOpSpec("B", ("lambda", "mu"), {
            "alpha": ParamForm(amb, {"lambda": f}),
            "omega-plus": ParamForm(amb, {"mu": a_m}),
            "omega-minus": ParamForm(amb, {"mu": a_p.scale(Scalar.of(-1))}),
        }),
    }
    if n == 3:
        ff2 = wedge(f, f).scale(Scalar.of(2))
        three = Scalar.of(3)
        ops["D"] = DiffOpSpec("D", ("lambda", "mu"), {
            "F": ParamForm(amb, {"lambda": om_m.scale(three),
                                 "mu": om_p.scale(-three)}),
            "omega-plus": ParamForm(amb, {"lambda": ff2}),
            "omega-minus": ParamForm(amb, {"mu": ff2}),
        })
    return StructureSpec("su-odd:%d" % n, amb, lie, gens, _odd_flag(n), ops)


def _build_psu3(as_printed, dual):
    lie = _psu3_lie()
    literal = RHO_PRINTED_LITERAL if as_printed else RHO_CORRECTED_LITERAL
    rho = parse_form(literal, 8)
    if dual:
        gens = {"star-rho": hodge(rho)}
        name = "psu3-dual"
    else:
        gens = {"rho": rho}
        name = "psu3"
    # the printed variant is knowingly not invariant; keep it addressable
    return StructureSpec(name, 8, lie, gens, tuple(range(1, 9)),
                         {"zero": _zero_op()},
                         check_invariance=not as_printed)


def _build_so39():
    lie = _so39_lie()
    gamma = parse_form(GAMMA_LITERAL, 9)
    star = hodge(gamma)
    ops = {
        "zero": _zero_op(),
        "gamma-dual": DiffOpSpec("gamma-dual", ("lambda",), {
            "gamma": ParamForm(9, {"lambda": star}),
            "star-gamma": ParamForm(9, {}),
        }),
    }
    return StructureSpec("so3-9", 9, lie, {"gamma": gamma, "star-gamma": star},
                         tuple(range(1, 10)), ops)


def _build_stabilized(name, n, literal_form, lie_name):
    lie = stabilizer(literal_form, skew=True, name=lie_name)
    return StructureSpec(name, n, lie, {_STAB_GEN_NAME[name]: literal_form},
                         tuple(range(1, n + 1)), {"zero": _zero_op()})


_STAB_GEN_NAME = {
    "g2": "phi",
    "spin7": "cayley",
    "sp2sp1": "sigma",
    "example-712": "w",
}


def _quaternionic_form():
    w1 = parse_form("e[1,2]+e[3,4]+e[5,6]+e[7,8]", 8)
    w2 = parse_form("e[1,3]-e[2,4]+e[5,7]-e[6,8]", 8)
    w3 = parse_form("e[1,4]+e[2,3]+e[5,8]+e[6,7]", 8)
    return wedge(w1, w1) + wedge(w2, w2) + wedge(w3, w3)


def parse_structure_name(text):
    """Split 'su-even:3' into ('su-even', 3); plain names get n=None."""
    if ":" in text:
        base, _, num = text.partition(":")
        try:
            n = integer(num)
        except ValueError:
            raise CatalogError("bad structure suffix %r" % num)
        return base, n
    return text, None


_CACHE = {}


def get_structure(name, n=None, as_printed=False):
    """Look up a catalog structure by name.

    su-even and su-odd require n (2 to 4); as_printed only affects psu3 and
    psu3-dual, selecting the uncorrected three-form.
    """
    if ":" in name:
        base, parsed = parse_structure_name(name)
        if n is not None and parsed != n:
            raise CatalogError("conflicting values of n for %r" % name)
        name, n = base, parsed
    if name not in STRUCTURE_NAMES:
        raise CatalogError("unknown structure %r" % name)
    if name in ("su-even", "su-odd"):
        if n is None:
            raise CatalogError("%s requires a value of n, e.g. %s:3" % (name, name))
    elif n is not None:
        raise CatalogError("%s does not take a value of n" % name)
    key = (name, n, bool(as_printed) if name in ("psu3", "psu3-dual") else False)
    if key in _CACHE:
        return _CACHE[key]
    if name == "su-even":
        spec = _build_su_even(n)
    elif name == "su-odd":
        spec = _build_su_odd(n)
    elif name == "psu3":
        spec = _build_psu3(as_printed, dual=False)
    elif name == "psu3-dual":
        spec = _build_psu3(as_printed, dual=True)
    elif name == "so3-9":
        spec = _build_so39()
    elif name == "g2":
        spec = _build_stabilized("g2", 7, parse_form(PHI_G2_LITERAL, 7), "g2")
    elif name == "spin7":
        spec = _build_stabilized("spin7", 8, parse_form(CAYLEY_LITERAL, 8), "spin7")
    elif name == "sp2sp1":
        spec = _build_stabilized("sp2sp1", 8, _quaternionic_form(), "sp2sp1")
    else:
        spec = _build_stabilized("example-712", 7,
                                 parse_form("e[1,2]+e[3,4]", 7), "stab(w)")
    _CACHE[key] = spec
    return spec


def structure_names():
    return STRUCTURE_NAMES


def structure_to_json(spec):
    """JSON-compatible dict; forms use the parseable literal syntax."""
    return {
        "name": spec.name,
        "n": spec.n,
        "lie": {
            "name": spec.lie.name,
            "dim": spec.lie.dim,
            "basis": [[[str(Scalar(row.get(j))) for j in range(spec.n)]
                       for row in mat] for mat in spec.lie.basis],
        },
        "generators": {g: form_literal(f) for g, f in spec.generators.items()},
        "default_flag": list(spec.default_flag),
        "operators": {
            op.name: {
                "params": list(op.params),
                "values": {
                    g: {("const" if k is None else k): form_literal(f)
                        for k, f in pf.parts.items()}
                    for g, pf in op.values.items()
                },
            }
            for op in spec.operators.values()
        },
    }
