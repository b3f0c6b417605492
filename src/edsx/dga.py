"""Degree-raising operators on invariant algebras and their integral spaces.

The algebra A is handled through its span-closure: every wedge product of
generators, organized by degree, each word a shorter prefix word times one
generator.  An operator given on generators induces values on products
through the graded Leibniz rule, one prefix at a time; whether that
assignment is well defined on linear relations is a rank condition, checked
degree by degree (Closure.respects).  Extensions to derivations of the full
exterior algebra are found by solving a linear system m D = f(g) over
Hom(T, Lambda^2 T) (extension, extension_rhs), whose solution set is the
affine space Z'; dim Z follows by bookkeeping, and dim Z'' from the rank
of m on g (x) T, whose rows d_D(g) = e^k ^ X_u . g the Leibniz rule reads
off the generators' images under g (StructureSpec.lie_images).  An extension
D respects every relation, since it gives each word the value d_D(word),
and f^2 = 0 reads d_D(f(g)) = 0, so the Leibniz values are formed and the
relations tested only for an operator that has none.
edsx.restriction runs the same relation test on a subspace and slices its
extension system out of the rows that extension_row_masks places in it,
and edsx.cartan reads codim Z_0 off the extension rank and c(W) off the
structure's edsx.stability.PolarTable, which Analysis keeps.
"""

from math import comb

from ._kernel import ONE, s_neg
from .scalar import Scalar
from .exterior import (Form, Subspace, coords, derivation_form,
                       derivation_images, lex_index, lex_masks, restrict,
                       wedge)
from .linalg import Elimination, combine, span_rank, transpose
from .rep import (HomMap, action_index, equivariant_coords, hom_dim,
                  invariants, sym_dim)
from .stability import PolarTable
from .catalog import StructureSpec, DiffOpSpec

__all__ = [
    "DgaError",
    "Closure",
    "Analysis",
    "analysis",
    "derivation_value",
    "OpCheck",
    "ZReport",
    "extension",
    "extension_rhs",
    "extension_row_masks",
    "operator_values",
    "check_operator",
    "z_spaces",
    "strong_admissibility",
    "lie_tensor_rows",
]


class DgaError(ValueError):
    pass


class Closure:
    """Span-closure of a finite set of generating forms.

    Words are multisets of generator positions in nondecreasing order; the
    associated form is the wedge product in that order.  Zero products are
    kept: they encode relations that an induced operator must respect.
    Every word past the generators is a shorter word, its prefix, times
    one generator; prefixes[i] is the position of word i's prefix, or None
    for a generator.
    """

    def __init__(self, n, generators):
        self.n = n
        self.gen_names = list(generators)
        self.gen_forms = [generators[g] for g in self.gen_names]
        self.gen_degrees = []
        for name, form in zip(self.gen_names, self.gen_forms):
            if form.degree is None:
                raise DgaError("generator %r is zero" % name)
            self.gen_degrees.append(form.degree)
        self.words = [((i,), form, deg) for i, (form, deg)
                      in enumerate(zip(self.gen_forms, self.gen_degrees))]
        self.prefixes = [None] * len(self.words)
        self.by_degree = {}
        # breadth first, with the word list as its own queue
        at = 0
        while at < len(self.words):
            word, form, deg = self.words[at]
            self.by_degree.setdefault(deg, []).append(at)
            for j in range(word[-1], len(self.gen_forms)):
                nd = deg + self.gen_degrees[j]
                if nd <= n:
                    self.words.append(
                        (word + (j,), wedge(form, self.gen_forms[j]), nd))
                    self.prefixes.append(at)
            at += 1
        self._solvers = {}

    def _solver(self, p):
        """Elimination of the matrix whose columns are the degree-p words."""
        solver = self._solvers.get(p)
        if solver is None:
            cols = [coords(self.words[i][1], p) for i in self.by_degree[p]]
            solver = Elimination(transpose(cols, comb(self.n, p)), len(cols))
            self._solvers[p] = solver
        return solver

    def degree_dim(self, p):
        """Dimension of the degree-p part of the algebra."""
        if p not in self.by_degree:
            return 0
        return self._solver(p).rank

    def express(self, a: Form, p):
        """(word, nonzero coefficient) pairs summing to a, or None."""
        idxs = self.by_degree.get(p, ())
        if not idxs:
            return None if not a.is_zero() else []
        part = self._solver(p).particular(coords(a, p))
        if part is None:
            return None
        return [(idxs[k], Scalar(c)) for k, c in part.items()]

    def induced_values(self, fvals):
        """The Leibniz value of an operator on every word, in word order.

        fvals maps generator names to values; a missing one is zero.  The
        word u ^ g with prefix u takes f(u) ^ g + (-1)^deg(u) u ^ f(g).
        """
        zero = Form.zero(self.n)
        gvals = [fvals.get(g, zero) for g in self.gen_names]
        values = []
        for (word, _, _), at in zip(self.words, self.prefixes):
            g = word[-1]
            if at is None:
                values.append(gvals[g])
                continue
            _, u, deg = self.words[at]
            tail = wedge(u, gvals[g])
            values.append(wedge(values[at], self.gen_forms[g])
                          + (-tail if deg % 2 else tail))
        return values

    def respects(self, values, w: Subspace = None):
        """Whether word values, one per word, respect the words' relations.

        In each degree p, appending the values to the words must leave
        their rank that of the words alone: then every linear relation
        among the words holds among the values.  With a subspace w, words
        and values are first pulled back to w (the ker p condition of
        edsx.restriction).
        """
        k = self.n if w is None else w.dim
        for p, idxs in sorted(self.by_degree.items()):
            if p >= k:
                break  # the values, of degree p + 1 > k, vanish
            words = [self.words[i][1] for i in idxs]
            vals = [values[i] for i in idxs]
            if w is not None:
                words = [restrict(x, w) for x in words]
                vals = [restrict(x, w) for x in vals]
            width = comb(k, p)
            left = [coords(x, p) for x in words]
            rank = (self.degree_dim(p) if w is None
                    else span_rank(left, width))
            aug = [{**row, **coords(v, p + 1, width)}
                   for row, v in zip(left, vals)]
            if span_rank(aug, width + comb(k, p + 1)) != rank:
                return False
        return True


def derivation_value(images, a: Form) -> Form:
    """Apply the degree-one derivation with e^i -> images[i-1] to a form."""
    return derivation_form(a, [[] if img is None else
                               [(0, J, d.c) for J, d in img.terms.items()]
                               for img in images])


class OpCheck:
    """Outcome of the operator checks on one structure."""

    __slots__ = ("leibniz_ok", "square_zero_ok", "extends_ok",
                 "extension_witness", "equivariant_witness")

    def __init__(self, leibniz_ok, square_zero_ok, extends_ok,
                 extension_witness, equivariant_witness):
        self.leibniz_ok = leibniz_ok
        self.square_zero_ok = square_zero_ok
        self.extends_ok = extends_ok
        self.extension_witness = extension_witness
        self.equivariant_witness = equivariant_witness

    def all_ok(self):
        return self.leibniz_ok and self.square_zero_ok and self.extends_ok

    def to_json(self):
        def wit(h):
            if h is None:
                return "empty"
            return [str(v) for v in h.flatten()]
        return {
            "leibniz_ok": self.leibniz_ok,
            "square_zero_ok": self.square_zero_ok,
            "extends_ok": self.extends_ok,
            "extension_witness": wit(self.extension_witness),
            "equivariant_witness": wit(self.equivariant_witness),
        }


class ZReport:
    """Dimensions of the integral spaces of one operator; z_prime_dim is
    None when Z' is empty."""

    __slots__ = ("n", "z_prime_dim", "z_dim", "z_doubleprime_dim", "xi_f")

    def __init__(self, n, z_prime_dim, z_dim, z_doubleprime_dim, xi_f):
        self.n = n
        self.z_prime_dim = z_prime_dim
        self.z_dim = z_dim
        self.z_doubleprime_dim = z_doubleprime_dim
        self.xi_f = xi_f

    def to_json(self):
        e = "empty"
        return {
            "z_prime_dim": (e if self.z_prime_dim is None
                            else self.z_prime_dim),
            "z_dim": e if self.z_dim is None else self.z_dim,
            "z_doubleprime_dim": (e if self.z_doubleprime_dim is None
                                  else self.z_doubleprime_dim),
            "xi_f": (e if self.xi_f is None
                     else [str(v) for v in self.xi_f.flatten()]),
        }


def extension_row_masks(n, forms):
    """The bitmask of the subset K each extension row stands for, in row
    order: the lex-ordered (deg g + 1)-subsets of 1..n, stacked over the
    forms g.  Row (g, K) holds the e^K coefficients of d_D(g) in extension
    and of f(g) in extension_rhs."""
    return [m for g in forms for m in lex_masks(n, g.degree + 1)]


def extension(n, forms) -> Elimination:
    """Elimination of the extension matrix of forms on R^n.

    Its columns are the units of Hom(T, Lambda^2 T) and its rows, in the
    order of extension_row_masks, stack d_D(g) over the forms g, so it
    solves d_D(g) = f(g) for D, with the right-hand side from
    extension_rhs.  Unit (i - 1) C(n, 2) + t sends e^i to the t-th unit
    2-form, so the rows take no product.
    """
    pairs = lex_index(n, 2)[0]
    units = [[(i * len(pairs) + t, J, ONE) for t, J in enumerate(pairs)]
             for i in range(n)]
    rows = []
    for g in forms:
        images = derivation_images(g, units)
        rows += [images.get(m, {}) for m in lex_masks(n, g.degree + 1)]
    return Elimination(rows, hom_dim(n))


def extension_rhs(generators, fvals):
    """Sparse f(g) stacked over the {name: form} generators, in order, in
    the rows of extension_row_masks; fvals maps names to values, and a
    missing one is zero."""
    out, at = {}, 0
    for name, g in generators.items():
        p = g.degree + 1
        if name in fvals:
            out.update(coords(fvals[name], p, at))
        at += comb(g.n, p)
    return out


def operator_values(s: StructureSpec, op, params=None):
    """{generator name: Form} of the operator, a DiffOpSpec or the name of
    one of s's, at the parameter assignment."""
    if not isinstance(op, DiffOpSpec):
        if op not in s.operators:
            raise DgaError("structure %r has no operator %r" % (s.name, op))
        op = s.operators[op]
    return op.instantiate(params)


class Analysis:
    """The invariants of one structure that no operator or parameter moves.

    Each part is computed on first use: the closure, whose per-degree
    eliminations give the algebra's dimensions and express its elements;
    one elimination of the extension matrix m, which depends only on the
    generators, so that dim Z', dim Z and codim Z_0 are fixed by its rank
    and each operator only reduces its right-hand side; the equivariant
    basis and the elimination of its extension columns; the ranks of
    g (x) T with and without ker m, which fix dim Z'' (m g is read off
    s.lie_images); and polar, the generators' PolarTable, the one owner
    of c(W) (rows on its first count).  Only sparse kernel-form data,
    forms and integers are kept.
    """

    __slots__ = ("s", "closure", "polar", "_extension", "_equivariant",
                 "_lie_ranks")

    def __init__(self, s: StructureSpec):
        self.s = s
        self.closure = Closure(s.n, s.generators)
        self.polar = PolarTable(s.n, s.generators.values())
        self._extension = None
        self._equivariant = None
        self._lie_ranks = None

    def extension(self) -> Elimination:
        """Elimination of the extension matrix of the generators."""
        if self._extension is None:
            self._extension = extension(self.s.n, self.s.generators.values())
        return self._extension

    def equivariant(self):
        """(equivariant basis in Hom coordinates, Elimination of its
        extension columns)."""
        if self._equivariant is None:
            # d_D(g) is linear in D, so the columns of the basis maps are
            # the extension matrix times the basis
            ext, basis = self.extension(), equivariant_coords(self.s.lie)
            cols = transpose(basis, ext.ncols)
            self._equivariant = (basis, Elimination(
                [combine(cols, row) for row in ext._rows], len(basis)))
        return self._equivariant

    def lie_ranks(self):
        """(rank of g (x) T, rank of g (x) T together with ker m): the
        second is dim ker m plus the rank of m on g (x) T, whose rows
        e^k ^ X_u . g are read off s.lie_images, none for invariant g."""
        if self._lie_ranks is None:
            s, ext = self.s, self.extension()
            rows = _wedge_rows(s.n, [(g.degree, s.lie_images[k])
                                     for k, g in s.generators.items()])
            self._lie_ranks = (
                span_rank(lie_tensor_rows(s.lie, s.n), ext.ncols),
                ext.ncols - ext.rank
                + (span_rank(list(rows.values()), ext.nrows) if rows else 0))
        return self._lie_ranks


def analysis(s: StructureSpec) -> Analysis:
    """The structure's Analysis: built on its first query, then kept on s."""
    if s._analysis is None:
        s._analysis = Analysis(s)
    return s._analysis


def _check_expressible(closure, fvals):
    """Each nonzero value as (word, coefficient) pairs, in order; raises
    DgaError when a value lies outside the algebra."""
    exprs = []
    for gname, val in fvals.items():
        if val.is_zero():
            continue
        expr = closure.express(val, val.degree)
        if expr is None:
            raise DgaError(
                "value of %r does not lie in the algebra" % gname)
        exprs.append(expr)
    return exprs


def check_operator(s: StructureSpec, op, params=None) -> OpCheck:
    """Leibniz well-definedness, squaring to zero, and extension solving.

    An extension D gives every word the value d_D(word), which is linear
    in the word, so the operator respects every relation and f(f(g)) is
    d_D(f(g)); the Leibniz values are formed, and the relations tested,
    only when no extension exists.
    """
    fvals = operator_values(s, op, params)
    a = analysis(s)
    closure = a.closure
    exprs = _check_expressible(closure, fvals)
    n = s.n

    rhs = extension_rhs(s.generators, fvals)
    part = a.extension().particular(rhs)
    if part is None:
        values = closure.induced_values(fvals)
        square_zero_ok = all(
            sum((values[i].scale(c) for i, c in expr), Form.zero(n)).is_zero()
            for expr in exprs)
        return OpCheck(closure.respects(values), square_zero_ok, False,
                       None, None)

    witness = HomMap.from_coords(n, part)
    square_zero_ok = all(derivation_value(witness.images, v).is_zero()
                         for v in fvals.values())
    basis, elim = a.equivariant()
    coeffs = elim.particular(rhs)
    equi = (None if coeffs is None
            else HomMap.from_coords(n, combine(basis, coeffs)))
    return OpCheck(True, square_zero_ok, True, witness, equi)


def _wedge_rows(n, blocks):
    """{u n + m - 1: e^m ^ X_u . b stacked over the blocks b, lex ordered},
    nonzero rows only; a block is (deg b, {mask of K: {u: e^K coefficient
    of X_u . b}}), and e^m ^ e^K = (-1)^|K below m| e^(K + m)."""
    rows, at = {}, 0
    for p, images in blocks:
        pos, masks = lex_index(n, p + 1)[1], lex_masks(n, p + 1)
        for K, coeffs in images.items():
            for m in range(1, n + 1):
                if not K >> m & 1:
                    col = at + pos[masks[K | 1 << m]]
                    odd = (K & ((1 << m) - 1)).bit_count() & 1
                    for u, c in coeffs.items():
                        rows.setdefault(u * n + m - 1, {})[col] = (
                            s_neg(c) if odd else c)
        at += len(masks)
    return rows


def lie_tensor_rows(lie, n):
    """Sparse Hom(T, Lambda^2 T) coordinates of the basis of g (x) T.

    The pair (X, e_m) maps to the derivation candidate sending e^i to
    e^m wedge X . e^i, the coframe action of rep.action_index: for a skew
    X, e^m wedge sum_j X_ij e^j, matching d(theta_i) = sum_j w_ij theta_j.
    """
    blocks = [(1, {}) for _ in range(n)]
    for (_, images), entries in zip(blocks, action_index(lie.basis, n)):
        for u, (j,), d in entries:
            images.setdefault(1 << j, {})[u] = d
    rows = _wedge_rows(n, blocks)
    return [rows.get(t, {}) for t in range(lie.dim * n)]


def z_spaces(s: StructureSpec, op, params=None) -> ZReport:
    """Z', Z and Z'' dimensions for an operator on the structure."""
    fvals = operator_values(s, op, params)
    n = s.n
    a = analysis(s)
    ext = a.extension()
    part = ext.particular(extension_rhs(s.generators, fvals))
    if part is None:
        return ZReport(n, None, None, None, None)
    z1 = ext.ncols - ext.rank
    g_rank, with_kernel = a.lie_ranks()
    z2 = with_kernel - g_rank
    xi = HomMap.from_coords(n, part) if z2 == 0 else None
    return ZReport(n, z1, z1 + sym_dim(n), z2, xi)


def strong_admissibility(s: StructureSpec):
    """Whether Z'' of the zero operator vanishes, with cross-checks.

    Requires the generators to span the full invariant algebra; returns
    (verdict, report) where the report carries every compared dimension.
    """
    a = analysis(s)
    closure = a.closure
    n = s.n
    for p in range(1, n + 1):
        have = closure.degree_dim(p)
        want = len(invariants(s.lie, p))
        if have != want:
            raise DgaError(
                "the algebra is incomplete in degree %d: spans %d of %d"
                % (p, have, want))
    report = {}
    z0 = z_spaces(s, "zero")
    strong = (z0.z_doubleprime_dim == 0)
    codim = n ** 3 - z0.z_dim
    expected = n * (n * (n - 1) // 2 - s.lie.dim)
    g_rank, with_kernel = a.lie_ranks()
    # g (x) T lies in ker m, the directions of Z', exactly when m takes it
    # to zero: when lie_ranks finds no row m g and with_kernel is dim Z'
    g_inside = (with_kernel == z0.z_prime_dim)
    report["z_doubleprime_dim"] = z0.z_doubleprime_dim
    report["codim_z0"] = codim
    report["dim_t_gperp"] = expected
    report["codim_matches"] = (codim == expected)
    report["z_prime_dim"] = z0.z_prime_dim
    report["g_tensor_rank"] = g_rank
    report["g_tensor_expected"] = n * s.lie.dim
    report["g_tensor_inside"] = g_inside
    report["splitting_exact"] = (g_inside
                                 and g_rank == n * s.lie.dim
                                 and z0.z_prime_dim == n * s.lie.dim)
    return strong, report
