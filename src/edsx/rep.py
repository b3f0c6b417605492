"""Lie algebra representations on exterior algebras and tensor spaces.

A matrix is a list of n sparse rows {column: kernel scalar}, the row
format of edsx.linalg, with no zero stored; mat_from is the one converter
from dense nested lists.  The action on the coframe is fixed globally as

    X . e^i = - sum_j X[j][i] e^j,

extended to Lambda^* as a degree-0 derivation (action_index, applied by
exterior.derivation_images); on vectors X acts as v -> X v.
Invariance kernels do not depend on this sign choice, and orbit spans
{X . a} are the same set either way.  The gl(n) and so(n) bases act by
units, so orbit_matrix hands derivation_images coefficients +-1 and its
rows take no product.

The structure constants of a LieRep are pair rows: {(a, b): row} over
every pair a < b of basis indices, row the sparse coordinates
{d: kernel scalar} of [x_a, x_b] in the basis ({} when the bracket
vanishes).  [x_b, x_a] is the negation and is never stored.  The rows are
computed once per LieRep and shared, so callers must not mutate them;
the Killing form of casimir_decompose and cartan_three_form read them.

Every module action is read by columns: X . e^I for a unit p-form comes
from derivation_images (_unit_columns).  On Hom(T, Lambda^2 T), in the
sparse coordinates of HomMap, (X . D)(xi) = X . D(xi) - D(X . xi) is the
tensor rule X (x) 1 + 1 (x) X (_tensor_line): row b of X on the coframe
slot, -D o X, and the unit column l on Lambda^2 T give column (b, l).
invariants and equivariant_coords intersect the kernels of the basis
elements that generate g under brackets (_generating): whatever x and y
both kill, [x, y] kills too, so those kernels already meet in g's.  The first kernel is read off all of its
generator's columns, each later one off the columns that the current
basis touches, and one echelon_span ends the intersection, so the bases
are canonical.

casimir_decompose targets a 3-dimensional Lie algebra normalized like
so(3), and reads both of its scales off the Killing form
B(x_a, x_b) = tr(ad x_a ad x_b), which _check_killing computes from the
structure constants and requires to be beta I on the basis for a nonzero
beta: g is then semisimple, its complexification is sl(2, C), and
C = sum_b x_b^2 is its Casimir up to scale.  The spin-j eigenvalue scale
lambda_j = kappa j(j+1) of C and the weight scale s of the first
generator H (H^2 = -s m^2 on the vectors of weight +-m) then come from
ad, the spin-1 module.  sum_b ad(x_b)^2 has the trace
sum_b B(x_b, x_b) = 3 beta on 3 dimensions, so C acts on ad as
beta = kappa 1 2; and ad H has the weights -1, 0 and 1, so
tr(ad H^2) = -2 s = beta.  Hence kappa = beta / 2 and s = -beta / 2
(beta = -4 for the so3-9 basis, so kappa = -2 and s = 2), and no
operator but H itself is built on T.

One more exact check holds T to the hypotheses: its weight counts
(_weight_counts) must all be 1, that is n(0) = dim ker H and
n(+-a) = dim ker(H^2 + s a^2) / 2 are 1 for a = 1..j_T, so T is
irreducible of spin j_T.  An irreducible T has C scalar (Schur), odd
dimension and H nonzero, so nothing else is checked.  Weights that are
not integers in the scale of g, such as the +-1/2 of su(2) on C^2, and
a weight that repeats raise CasimirError.

The spin multiplicities are then read off the weights alone.  g acts
completely reducibly, and a summand of spin j has one vector of each
weight -j..j, so spin j occurs n(j) - n(j + 1) times, where n(a) counts
the vectors of weight a (Humphreys, Introduction to Lie Algebras and
Representation Theory, sections 6 and 7; Fulton and Harris,
Representation Theory, lecture 11).  T has the weights -j_T..j_T,
Lambda^2 T the sums over pairs of distinct weight positions of T, and g
under ad the weights -1, 0 and 1.  H acts on V (x) W as
H_V (x) 1 + 1 (x) H_W, so a weight of V (x) W is a weight of V plus one
of W.  No operator is built on a tensor space.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations, product
from math import comb

from ._kernel import (NEG_ONE, ONE, s_add, s_inv, s_mul, s_neg,
                      s_quotient)
from .exterior import (Form, coords, derivation_form, derivation_images,
                       flatten, from_coords, lex_index, lex_masks)
from .linalg import (Elimination, combine, echelon_span, kernel_basis,
                     span_rank, transpose)
from .scalar import Scalar, as_scalar


def mat_from(rows):
    """The sparse rows of a dense nested list of anything as_scalar takes;
    the one converter from dense matrices."""
    return [{j: c for j, x in enumerate(row) if (c := as_scalar(x).c)}
            for row in rows]


def mat_is_skew(m) -> bool:
    return all(m[j].get(i) == s_neg(c)
               for i, row in enumerate(m) for j, c in row.items())


def mat_bracket(x, y):
    """xy - yx: row i combines the rows k of y by x[i][k], of x by -y[i][k]."""
    n, rows = len(x), y + x
    return [combine(rows, {**xi, **{n + k: s_neg(c) for k, c in yi.items()}})
            for xi, yi in zip(x, y)]


def _mat_coords(m):
    """Sparse coordinates of a matrix, in row-major order."""
    n = len(m)
    return {i * n + j: c for i, row in enumerate(m) for j, c in row.items()}


class LieRep:
    """A Lie algebra presented by sparse-row matrices acting on R^n."""

    def __init__(self, name, n, basis, skew=True):
        self.name = name
        self.n = n
        self.basis = basis
        self.skew = skew
        self._constants = None
        self._equivariant = None

    @property
    def dim(self):
        return len(self.basis)

    def validate(self):
        for k, x in enumerate(self.basis):
            if len(x) != self.n or any(not 0 <= j < self.n
                                       for r in x for j in r):
                raise ValueError("%s: basis matrix %d is not %dx%d"
                                 % (self.name, k, self.n, self.n))
            if not all(c for r in x for c in r.values()):
                raise ValueError("%s: basis matrix %d stores a zero"
                                 % (self.name, k))
            if self.skew and not mat_is_skew(x):
                raise ValueError("%s: basis matrix %d is not skew" % (self.name, k))
        self.structure_constants()

    def structure_constants(self):
        """The bracket rows {(a, b): {d: kernel scalar}} over every pair
        a < b, with [x_a, x_b] = sum_d rows[a, b][d] x_d and {} for a
        bracket that vanishes; [x_b, x_a] is the negation.  Raises when
        the basis is linearly dependent or a bracket leaves its span.

        Computed once per LieRep and shared: callers must not mutate the
        dict or its rows.
        """
        if self._constants is not None:
            return self._constants
        k = self.dim
        span = Elimination(
            transpose([_mat_coords(x) for x in self.basis], self.n ** 2), k)
        # solved before the rank is read, so that the rank is the pivot
        # count of the one factorization the solves make
        rows = {(a, b): span.particular(_mat_coords(
                    mat_bracket(self.basis[a], self.basis[b])))
                for a in range(k) for b in range(a + 1, k)}
        if span.rank < k:
            raise ValueError("%s: basis is linearly dependent (rank %d of %d)"
                             % (self.name, span.rank, k))
        for (a, b), part in rows.items():
            if part is None:
                raise ValueError("%s: bracket [%d,%d] leaves the span"
                                 % (self.name, a, b))
        self._constants = rows
        return rows


def action_index(mats, n):
    """The coframe action of each matrix as derivation_images wants it:
    matrix u sends e^j to -sum_i x_ij e^i."""
    by_index = [[] for _ in range(n)]
    for u, x in enumerate(mats):
        for i, row in enumerate(x):
            for j, c in row.items():
                by_index[j].append((u, (i + 1,), s_neg(c)))
    return by_index


def act_on_form(x, a: Form) -> Form:
    """Derivation action of the matrix x on a form."""
    return derivation_form(a, action_index([x], a.n))


def _unit_forms(n, p):
    """The unit forms e^I over the lex-ordered p-subsets I of 1..n."""
    return [from_coords({t: ONE}, n, p) for t in range(comb(n, p))]


def _unit_columns(x, n, p, units):
    """The coframe action of the matrix x on degree-p forms, by columns:
    column t is x . units[t] (see _unit_forms), keyed by lex position,
    read off derivation_images; the calls share one table."""
    pos, masks = lex_index(n, p)[1], lex_masks(n, p)
    index, table = action_index([x], n), {}
    return lambda t: {pos[masks[K]]: row[0] for K, row
                      in derivation_images(units[t], index, table).items()}


def _generating(g: LieRep):
    """Indices of basis elements that generate g under brackets, walked in
    order: s is kept when x_s lies outside the subalgebra the kept ones
    generate, and the walk stops once that subalgebra is all of g.

    The subalgebra generated by the kept x_t is the least subspace that
    holds them and is closed under every ad x_t, so each vector that
    enters it is bracketed with each kept x_t, in coordinates on the
    basis: [u, x_t] is a sparse sum of the pair rows of
    structure_constants.  Whatever two elements kill, their bracket
    kills, so a common kernel of the kept matrices is g's.  A basis that
    is not closed under brackets keeps every index.
    """
    try:
        brackets = g.structure_constants()
    except ValueError:
        return list(range(g.dim))
    # the subalgebra: rows by pivot, each 1 at its pivot and zero before it
    echelon, found, work, kept = {}, [], [], []

    def reduce(v):
        for p in sorted(echelon):
            c = v.get(p)
            if c:
                v = combine((v, echelon[p]), {0: ONE, 1: s_neg(c)})
        return v

    def enter(v):
        p = min(v)
        inv = s_inv(v[p])
        echelon[p] = {k: s_mul(c, inv) for k, c in v.items()}
        found.append(v)
        work.extend((v, t) for t in kept)

    for s in range(g.dim):
        if len(echelon) == g.dim:
            break
        v = reduce({s: ONE})
        if not v:
            continue
        work.extend((u, s) for u in found)
        kept.append(s)
        enter(v)
        while work and len(echelon) < g.dim:
            u, t = work.pop()
            v = reduce(combine(brackets, {
                (a, t) if a < t else (t, a): c if a < t else s_neg(c)
                for a, c in u.items() if a != t}))
            if v:
                enter(v)
    return kept


def _common_kernel(columns, dim):
    """Echelon basis of the vectors over dim columns that every generator
    kills, the kernels intersected one generator at a time; columns holds
    one function per generator, k -> the image of the k-th unit vector.
    The first generator's kernel is read off all its columns; each later
    one is called once for each k that the current basis touches."""
    basis = None
    for column in columns:
        if basis is None:
            basis = kernel_basis(transpose(
                [column(k) for k in range(dim)], dim), dim)
            continue
        if not basis:
            return []
        cols = {k: column(k) for k in set().union(*basis)}
        images = [combine(cols, v) for v in basis]
        basis = [combine(basis, c)
                 for c in kernel_basis(transpose(images, dim), len(images))]
    if basis is None:
        basis = [{k: ONE} for k in range(dim)]
    return echelon_span(basis, dim)


def invariants(g: LieRep, p: int):
    """Echelon basis of the forms of degree p killed by every generator."""
    units = _unit_forms(g.n, p)
    return [from_coords(row, g.n, p) for row in _common_kernel(
        (_unit_columns(g.basis[s], g.n, p, units) for s in _generating(g)),
        len(units))]


def gl_basis(n, skew=False):
    """Elementary matrices E_ij in row-major order, or E_ij - E_ji (i<j)."""
    out = []
    for i in range(n):
        for j in range(i + 1 if skew else 0, n):
            m = [{} for _ in range(n)]
            m[i][j] = ONE
            if skew:
                m[j][i] = s_neg(ONE)
            out.append(m)
    return out


def orbit_matrix(a: Form, skew=False):
    """Sparse rows of the matrix whose columns are X . a over the gl(n)
    (or so(n)) basis, in the order of gl_basis: E_ij sends e^j to -e^i,
    and E_ij - E_ji sends e^i to e^j as well."""
    units = [[] for _ in range(a.n)]
    for u, (i, j) in enumerate(lex_index(a.n, 2)[0] if skew
                               else product(range(1, a.n + 1), repeat=2)):
        units[j - 1].append((u, (i,), NEG_ONE))
        if skew:
            units[i - 1].append((u, (j,), ONE))
    images = derivation_images(a, units)
    return [images.get(m, {}) for m in lex_masks(a.n, a.degree)]


def stabilizer(a: Form, skew=False, name=None) -> LieRep:
    """Matrices with X . a = 0, in gl(n) or intersected with so(n)."""
    gens = gl_basis(a.n, skew=skew)
    by_row = list(zip(*gens))
    mats = [[combine(rows, c) for rows in by_row]
            for c in kernel_basis(orbit_matrix(a, skew=skew), len(gens))]
    label = name or ("stab(%s)" % a)
    return LieRep(label, a.n, mats, skew=skew)


class HomMap:
    """Linear map T -> Lambda^2 T given by the images of the coframe."""

    __slots__ = ("n", "images")

    def __init__(self, n, images):
        self.n = n
        self.images = images

    @classmethod
    def from_coords(cls, n, vec):
        """The map with the sparse coordinates vec (see coords)."""
        step = comb(n, 2)
        blocks = [{} for _ in range(n)]
        for k, c in vec.items():
            i, t = divmod(k, step)
            blocks[i][t] = c
        return cls(n, [from_coords(b, n, 2) for b in blocks])

    def flatten(self):
        out = []
        for img in self.images:
            out.extend(flatten(img, 2))
        return out

    def coords(self):
        """Sparse coordinates, in the order of flatten()."""
        step = comb(self.n, 2)
        out = {}
        for i, img in enumerate(self.images):
            out.update(coords(img, 2, i * step))
        return out

    def is_zero(self):
        return all(img.is_zero() for img in self.images)

    def __eq__(self, other):
        if not isinstance(other, HomMap):
            return NotImplemented
        return self.n == other.n and self.images == other.images

    def __repr__(self):
        return "HomMap(%d, [%s])" % (
            self.n, ", ".join(repr(str(f)) for f in self.images))


def act_on_hom(x, D: HomMap) -> HomMap:
    """(x . D)(xi) = x . D(xi) - D(x . xi) for a coframe element xi: the
    Hom columns of x combined by the coordinates of D."""
    column, vec = _hom_columns(x, D.n, _unit_forms(D.n, 2)), D.coords()
    return HomMap.from_coords(D.n, combine({k: column(k) for k in vec}, vec))


def hom_dim(n):
    return n * (n * (n - 1) // 2)


def sym_dim(n):
    """dim T (x) S^2 T, the kernel of gl(T) (x) T -> Hom(T, Lambda^2 T)."""
    return n * (n * (n + 1) // 2)


def equivariant_coords(g: LieRep):
    """Sparse Hom coordinates of the echelon basis of the maps
    T -> Lambda^2 T commuting with the g-action; computed once per
    LieRep and shared, so callers only read them."""
    if g._equivariant is None:
        units = _unit_forms(g.n, 2)
        g._equivariant = tuple(_common_kernel(
            (_hom_columns(g.basis[s], g.n, units) for s in _generating(g)),
            hom_dim(g.n)))
    return g._equivariant


def _hom_columns(x, n, units):
    """The action of x on Hom(T, Lambda^2 T), by columns: the unit map
    k = b C(n, 2) + l sends e^(b+1) to the l-th unit 2-form, and its
    image is line (b, l) of the tensor rule, with row b of x on the
    coframe slot (-D o x) and x . e^l, built once per l, on the 2-forms."""
    pairs = len(units)
    forms = cache(_unit_columns(x, n, 2, units))

    def column(k):
        b, l = divmod(k, pairs)
        return _tensor_line(x[b], forms(l), b, l, pairs)
    return column


def equivariant_maps(g: LieRep):
    """Basis of Hom(T, Lambda^2 T) commuting with the g-action, as fresh
    HomMaps on each call."""
    return [HomMap.from_coords(g.n, v) for v in equivariant_coords(g)]


def cartan_three_form(brackets, m) -> Form:
    """rho(x_a, x_b, x_c) = <[x_a, x_b], x_c> for an orthonormal basis
    x_1..x_m, from the bracket rows of structure_constants."""
    return Form(m, {(a + 1, b + 1, c + 1): Scalar(v)
                    for (a, b), row in sorted(brackets.items())
                    for c, v in sorted(row.items()) if c > b})


# ------------------------------------------------------------- casimir

class CasimirError(ValueError):
    pass


class CasimirDecomposition:
    """Spin decomposition: parts is a sorted list of (2j+1, multiplicity)."""

    __slots__ = ("space", "dim", "kappa", "parts")

    def __init__(self, space, dim, kappa, parts):
        self.space = space
        self.dim = dim
        self.kappa = kappa
        self.parts = parts

    @property
    def components(self):
        return sum(m for _, m in self.parts)

    def __repr__(self):
        body = " + ".join("%d*V%d" % (m, d) if m > 1 else "V%d" % d
                          for d, m in self.parts)
        return "CasimirDecomposition(%s: dim %d = %s)" % (self.space, self.dim, body)


def _add_entry(row, k, c):
    """row[k] += c for a nonzero c, dropping the entry when it cancels."""
    c = s_add(row.get(k), c)
    if c:
        row[k] = c
    else:
        del row[k]


def _tensor_line(v_line, w_line, a, i, dim_w):
    """Line (a, i) of x (x) 1 + 1 (x) x on V (x) W, v_a (x) w_i at column
    a * dim_w + i, from line a of x on V and line i of x on W."""
    line = {b * dim_w + i: c for b, c in v_line.items()}
    for l, c in w_line.items():
        _add_entry(line, a * dim_w + l, c)
    return line


def _weight_counts(h, dim, s):
    """[n(0), n(1), ...] for the first generator h on a factor of dimension
    dim: n(0) = dim ker h, and n(a) = dim ker(h^2 + s a^2) / 2 vectors of
    each weight +a and -a, for a = 1, 2, ... until they fill dim.  Raises
    CasimirError when they cannot: h is then not semisimple with integer
    weights in the scale s."""
    counts = [dim - span_rank(h, dim)]
    left = dim - counts[0]
    # h^2, shifted in place from h^2 + s (a - 1)^2 to h^2 + s a^2
    shifted = [combine(h, row) for row in h]
    while left:
        a = len(counts)
        step = s_mul(s, s_quotient(2 * a - 1))
        for i, row in enumerate(shifted):
            _add_entry(row, i, step)
        size = dim - span_rank(shifted, dim)
        if a == dim or size % 2:
            raise CasimirError("weights of the first generator on T are not "
                               "integers in the scale of g")
        counts.append(size // 2)
        left -= size
    return counts


def _check_killing(g: LieRep):
    """beta, where the Killing form tr(ad x_a ad x_b) is beta I on the
    basis; raise CasimirError unless beta is nonzero.  (ad x_a)[d][b] is
    the x_d coordinate of [x_a, x_b], read off structure_constants."""
    k = g.dim
    ad = [[{} for _ in range(k)] for _ in range(k)]
    for (a, b), row in g.structure_constants().items():
        for d, c in row.items():
            ad[a][d][b] = c
            ad[b][d][a] = s_neg(c)

    def trace(x, y):
        t = None
        for d, row in enumerate(x):
            for e, c in row.items():
                t = s_add(t, s_mul(c, y[e].get(d)))
        return t

    unit = trace(ad[0], ad[0])
    if not unit or any(trace(ad[a], ad[b]) != (unit if a == b else None)
                       for a in range(k) for b in range(k)):
        raise CasimirError("the Killing form is not a nonzero multiple of "
                           "the identity on the basis")
    return unit


def _space_weights(space, j_t):
    """The weight multiplicities {weight: count} of the first generator on a
    tensor space over T of spin j_t; a weight of a tensor product is a sum
    of one weight of each factor."""
    t = range(-j_t, j_t + 1)
    if space == "T":
        return Counter(t)
    if space == "t-lambda2":
        other = [a + b for a, b in combinations(t, 2)]
    elif space == "t-g":
        other = (-1, 0, 1)
    else:
        raise CasimirError("unknown representation space %r" % space)
    return Counter(a + b for a in t for b in other)


def _decompose(space, j_t, kappa):
    """casimir_decompose of one tensor space over T of spin j_t: spin j
    occurs n(j) - n(j + 1) times."""
    n = _space_weights(space, j_t)
    parts = [(2 * j + 1, n[j] - n[j + 1])
             for j in range(max(n) + 1) if n[j] != n[j + 1]]
    return CasimirDecomposition(space, sum(n.values()), kappa, parts)


def casimir_decompose(g: LieRep, space: str) -> CasimirDecomposition:
    """Decompose a representation space under a 3-dimensional g."""
    if g.dim != 3:
        raise CasimirError("casimir_decompose needs a 3-dimensional Lie algebra")
    beta = _check_killing(g)
    # C acts on ad, the spin-1 module, as beta = kappa 1 2, and
    # tr(ad H^2) = -2 s = beta (see the module docstring)
    kappa = Scalar(beta) / 2
    counts = _weight_counts(g.basis[0], g.n, s_mul(beta, s_quotient(-1, 2)))
    if any(k != 1 for k in counts):
        raise CasimirError("T is not irreducible: a weight of the first "
                           "generator repeats")
    j_t = len(counts) - 1
    if space not in ("t-gperp", "quotient"):
        return _decompose(space, j_t, kappa)
    whole = _decompose("t-lambda2", j_t, kappa)
    sub = _decompose("t-g", j_t, kappa)
    parts = dict(whole.parts)
    for d, m in sub.parts:
        if parts.get(d, 0) < m:
            raise CasimirError("g (x) T does not embed in T (x) Lambda^2 T")
        parts[d] -= m
    parts = sorted((d, m) for d, m in parts.items() if m)
    return CasimirDecomposition(space, whole.dim - sub.dim, kappa, parts)
