"""Sparse exterior algebra on R^n with exact field coefficients.

Multi-indices are 1-based strictly increasing tuples.  Conventions fixed
here and relied on everywhere else:

* orientation / volume form is e^{1...n};
* the Hodge star treats e^1, ..., e^n as an oriented orthonormal coframe;
* contraction by a decomposable multivector applies the rightmost vector
  first: (v1 ^ ... ^ vk) -| a = v1 -| (... (vk -| a));
* coordinates run over p-subsets in lexicographic order (lex_index):
  coords() gives them sparse, flatten() dense for output;
* a derivation is fixed by the images of the coframe, and
  derivation_images is the one rule that applies it to a form's terms,
  unit tables (e^i -> +-e^J, no product) and general ones alike: replace
  index i of e^I at position t by the image, sort with sign, and multiply
  by (-1)^(t deg D) for a derivation D of degree deg D, all read off
  bitmasks as one parity;
* the sign of a reordering is the parity of its inversions, counted on
  bitmasks: an index i placed after the indices of mask m passes
  (m >> i).bit_count() of them.  _sort_sign counts it for a tuple, and
  wedge counts the same way on the masks of its two factors.

Form literals are the scalar literal grammar with e[i,j,...] atoms added,
e.g. "-1/4*r5*e[2,5,8,9] + e[1,3]"; * between forms is a wedge.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations

from ._kernel import DIVISORS, NEG_ONE, ONE, s_add, s_mul, s_neg
from .linalg import span_rank
from .scalar import Scalar, _Literal, _term_text, as_scalar, integer


def _mask(idx):
    """The bitmask of an index tuple: bit i for each index i."""
    m = 0
    for i in idx:
        m |= 1 << i
    return m


def _sort_sign(idx):
    """Sort an index tuple, returning (sorted tuple, sign); 0 on repeats.

    The sign is the parity of the inversions: each index i follows
    (seen >> i).bit_count() larger ones, seen the mask of those before it.
    """
    seen = inv = 0
    for i in idx:
        bit = 1 << i
        if seen & bit:
            return None, 0
        inv += (seen >> i).bit_count()
        seen |= bit
    return tuple(sorted(idx)), -1 if inv & 1 else 1


class Form:
    """Homogeneous exterior form; terms maps multi-index -> Scalar."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        deg = None
        if terms:
            for idx, c in terms.items():
                c = as_scalar(c)
                if not c:
                    continue
                idx = tuple(idx)
                if deg is None:
                    deg = len(idx)
                elif len(idx) != deg:
                    raise ValueError("mixed degrees in one form")
                if any(not 1 <= i <= n for i in idx):
                    raise ValueError("index out of range 1..%d: %r" % (n, idx))
                if any(idx[k] >= idx[k + 1] for k in range(len(idx) - 1)):
                    raise ValueError("multi-index not strictly increasing: %r" % (idx,))
                clean[idx] = c
        self.terms = clean

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def monomial(cls, n, idx, coeff=1):
        """coeff * e^{idx}; idx may be unsorted and is sorted with sign."""
        idx = tuple(idx)
        if any(not 1 <= i <= n for i in idx):
            raise ValueError("index out of range 1..%d: %r"
                             % (n, tuple(sorted(idx))))
        sidx, sign = _sort_sign(idx)
        if sign == 0:
            return cls(n)
        c = as_scalar(coeff)
        if sign < 0:
            c = -c
        return cls(n, {sidx: c})

    @property
    def degree(self):
        """Common degree of the terms; None for the zero form."""
        if not self.terms:
            return None
        return len(next(iter(self.terms)))

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("forms on different spaces")
        if self.terms and other.terms and self.degree != other.degree:
            raise ValueError("adding forms of different degrees")
        out = dict(self.terms)
        for idx, c in other.terms.items():
            cur = out.get(idx)
            s = c if cur is None else cur + c
            if s:
                out[idx] = s
            else:
                del out[idx]
        f = Form(self.n)
        f.terms = out
        return f

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        f = Form(self.n)
        f.terms = {idx: -c for idx, c in self.terms.items()}
        return f

    def scale(self, s) -> "Form":
        s = as_scalar(s)
        f = Form(self.n)
        if s:
            f.terms = {idx: c * s for idx, c in self.terms.items()}
        return f

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __str__(self):
        return form_literal(self)

    def __repr__(self):
        return "Form(%d, %r)" % (self.n, form_literal(self))


def wedge(a: Form, b: Form) -> Form:
    if a.n != b.n:
        raise ValueError("forms on different spaces")
    out = {}
    bterms = [(J, _mask(J), cb.c) for J, cb in b.terms.items()]
    for I, ca in a.terms.items():
        cac = ca.c
        mI = _mask(I)
        for J, mJ, cbc in bterms:
            if mI & mJ:
                continue
            inv = 0
            for j in J:
                inv += (mI >> j).bit_count()
            K = tuple(sorted(I + J))
            c = s_mul(cac, cbc)
            if inv & 1:
                c = s_neg(c)
            cur = out.get(K)
            if cur is None:
                out[K] = c
            else:
                cur = s_add(cur, c)
                if cur:
                    out[K] = cur
                else:
                    del out[K]
    f = Form(a.n)
    f.terms = {K: Scalar(c) for K, c in out.items()}
    return f


def contract(v, a: Form) -> Form:
    """Interior product v -| a for a vector v (list of n Scalars)."""
    vc = [as_scalar(x).c for x in v]
    if len(vc) != a.n:
        raise ValueError("vector length %d != ambient %d" % (len(vc), a.n))
    out = {}
    for I, c in a.terms.items():
        cc = c.c
        for pos, i in enumerate(I):
            x = vc[i - 1]
            if not x:
                continue
            K = I[:pos] + I[pos + 1:]
            add = s_mul(cc, x)
            if pos & 1:
                add = s_neg(add)
            cur = out.get(K)
            if cur is None:
                out[K] = add
            else:
                cur = s_add(cur, add)
                if cur:
                    out[K] = cur
                else:
                    del out[K]
    f = Form(a.n)
    f.terms = {K: Scalar(c) for K, c in out.items() if c}
    return f


def derivation_images(a: Form, by_index, table=None):
    """{mask of K: {u: coefficient of e^K in D_u(a)}} for the derivations
    D_u with D_u(e^i) the sum of d e^J over the (u, J, d) in by_index[i-1],
    d a kernel scalar; no zero and no empty row is stored.  A caller that
    applies one by_index to many forms passes one dict as table, which
    keeps the _entries of each index between the calls.

    The term c e^I with i at position t, and L = I minus i, adds +-c d to
    row L + J, column u, when J misses L.  Its sign, (-1)^(t deg D) times
    the sort sign of I[:t] + J + I[t+1:], has the parity of the bits of L
    in the sign mask of _entries; d = +-1 takes no product.
    """
    table, out = {} if table is None else table, defaultdict(dict)
    for I, c in a.terms.items():
        cs = (c.c, s_neg(c.c))
        m = _mask(I)
        for i in I:
            L = m ^ (1 << i)
            entries = table.get(i)
            if entries is None:
                entries = table[i] = _entries(i, by_index[i - 1])
            for u, jm, sm, neg, d in entries:
                if L & jm:
                    continue
                x = cs[((L & sm).bit_count() + neg) & 1]
                if d is not None:
                    x = s_mul(x, d)
                row = out[L | jm]
                if u not in row:
                    row[u] = x
                    continue
                cur = s_add(row[u], x)
                if cur:
                    row[u] = cur
                else:
                    del row[u]
                    if not row:
                        del out[L | jm]
    return out


def _entries(i, entries):
    """The (u, J, d) of e^i as (u, mask of J, sign mask, neg, d or None for
    d = +-1).  The sign is the parity of t + sum_j |L below j|, and
    t = |L below i|, so the sign mask sets bit l when an odd number of i
    and the j in J exceed l."""
    out = []
    for u, J, d in entries:
        jm, sm = 0, (1 << i) - 1
        for j in J:
            jm |= 1 << j
            sm ^= (1 << j) - 1
        out.append((u, jm, sm, d == NEG_ONE,
                    None if d == ONE or d == NEG_ONE else d))
    return out


def derivation_form(a: Form, by_index) -> Form:
    """D_0(a) as a form, for the one derivation u = 0 of by_index."""
    images = derivation_images(a, by_index)
    f = Form(a.n)
    if images:
        subsets = lex_masks(a.n, next(iter(images)).bit_count())
        f.terms = {subsets[K]: Scalar(row[0]) for K, row in images.items()}
    return f


def hodge(a: Form) -> Form:
    """Hodge star for the orthonormal coframe with volume e^{1...n}."""
    n = a.n
    full = range(1, n + 1)
    out = {}
    for I, c in a.terms.items():
        iset = set(I)
        Ic = tuple(j for j in full if j not in iset)
        out[Ic] = c if _sort_sign(I + Ic)[1] > 0 else -c
    f = Form(n)
    f.terms = out
    return f


class Subspace:
    """Subspace of R^n given by an ordered basis of vectors."""

    __slots__ = ("n", "vectors", "coords")

    def __init__(self, n, vectors, coords=None):
        self.n = n
        self.vectors = vectors
        self.coords = coords

    @classmethod
    def coordinate(cls, n, indices):
        """Span of e_i for i in indices, in the given order."""
        indices = tuple(indices)
        if len(set(indices)) != len(indices):
            raise ValueError("repeated coordinate index")
        if any(not 1 <= i <= n for i in indices):
            raise ValueError("coordinate index out of range")
        vecs = []
        for i in indices:
            v = [Scalar() for _ in range(n)]
            v[i - 1] = as_scalar(1)
            vecs.append(v)
        return cls(n, vecs, indices)

    @classmethod
    def hyperplane(cls, n, drop):
        """The coordinate hyperplane e_drop^perp, basis in ascending order."""
        return cls.coordinate(n, [i for i in range(1, n + 1) if i != drop])

    @classmethod
    def from_vectors(cls, n, vectors):
        """Span of linearly independent vectors, in the given order."""
        vecs = [[as_scalar(x) for x in v] for v in vectors]
        for v in vecs:
            if len(v) != n:
                raise ValueError("basis vector of wrong length")
        if _vector_rank(vecs, n) < len(vecs):
            raise ValueError("basis vectors are linearly dependent")
        return cls(n, vecs, None)

    def completed(self):
        """A basis of R^n: this basis, then coordinate vectors, greedily."""
        basis = list(self.vectors)
        for e in Subspace.coordinate(self.n, range(1, self.n + 1)).vectors:
            if _vector_rank(basis + [e], self.n) > len(basis):
                basis.append(e)
        return Subspace(self.n, basis)

    @property
    def dim(self):
        return len(self.vectors)

    def __repr__(self):
        if self.coords is not None:
            return "Subspace(coords=%r of %d)" % (self.coords, self.n)
        return "Subspace(dim=%d of %d)" % (self.dim, self.n)


def _vector_rank(vectors, n):
    """Rank of vectors given as lists of n Scalars."""
    return span_rank([{j: x.c for j, x in enumerate(v) if x}
                      for v in vectors], n)


def restrict(a: Form, w: Subspace) -> Form:
    """Pullback of a along the inclusion of w, in w's basis coordinates."""
    if w.n != a.n:
        raise ValueError("subspace of a different ambient space")
    k = w.dim
    if w.coords is not None:
        # the coordinates are distinct, so I -> local(I) is injective
        local = {i: p + 1 for p, i in enumerate(w.coords)}
        out = {}
        for I, c in a.terms.items():
            if all(i in local for i in I):
                idx, sign = _sort_sign(tuple(local[i] for i in I))
                out[idx] = -c if sign < 0 else c
        f = Form(k)
        f.terms = out
        return f
    p = a.degree
    if p is None:
        return Form(k)
    if p > k:
        return Form(k)
    out = {}
    for L in combinations(range(1, k + 1), p):
        x = a
        for l in L:
            x = contract(w.vectors[l - 1], x)
        c = x.terms.get((), None)
        if c:
            out[L] = c
    f = Form(k)
    f.terms = out
    return f


_LEX = {}


def lex_index(n, p):
    """(lex-ordered p-subsets of 1..n, {subset: position}), cached per (n, p).

    The one column order of degree-p coordinates: flatten() and coords()
    both read it.
    """
    lex = _LEX.get((n, p))
    if lex is None:
        subsets = tuple(combinations(range(1, n + 1), p))
        lex = _LEX[(n, p)] = (subsets, {I: t for t, I in enumerate(subsets)})
    return lex


_MASKS = {}


def lex_masks(n, p):
    """{bitmask of K: K} over the lex-ordered p-subsets K of 1..n, cached
    per (n, p): the row order in which matrices read derivation_images."""
    if (n, p) not in _MASKS:
        bits = combinations([1 << i for i in range(1, n + 1)], p)
        _MASKS[n, p] = dict(zip(map(sum, bits), lex_index(n, p)[0]))
    return _MASKS[n, p]


def _check_degree(a: Form, p):
    if a.terms and a.degree != p:
        raise ValueError("form has degree %s, not %d" % (a.degree, p))


def coords(a: Form, p, offset=0):
    """Sparse coordinates {offset + lex position of I: coefficient dict}.

    The row format of edsx.linalg, built from a's terms alone; the
    coefficient dicts are a's own, shared, as scalars are immutable.
    """
    _check_degree(a, p)
    pos = lex_index(a.n, p)[1]
    return {offset + pos[I]: c.c for I, c in a.terms.items()}


def from_coords(vec, n, p):
    """The degree-p form on R^n with sparse coordinates vec."""
    subsets = lex_index(n, p)[0]
    f = Form(n)
    f.terms = {subsets[t]: Scalar(c) for t, c in vec.items()}
    return f


def flatten(a: Form, p=None):
    """Coefficient vector over lex-ordered p-subsets of 1..n."""
    if p is None:
        p = a.degree
        if p is None:
            raise ValueError("flatten of the zero form needs an explicit degree")
    _check_degree(a, p)
    return [a.terms.get(I, Scalar()) for I in lex_index(a.n, p)[0]]


def scalar_value(a: Form) -> Scalar:
    """Value of a degree-0 form."""
    if not a.terms:
        return Scalar()
    if a.degree != 0:
        raise ValueError("not a degree-0 form")
    return a.terms[()]


# ---------------------------------------------------------------- parsing

class _FormLiteral(_Literal):
    """The literal grammar on R^n with e[i,j,...] atoms.

    Coefficients stay Scalars until they meet a form: * between forms is a
    wedge, a scalar times a form scales it, and + or - lifts a scalar to a
    degree-0 form.
    """

    what, noun = "form literal", "form"

    def __init__(self, text, n):
        self.n = n
        super().__init__(text)

    def _other(self, text, i):
        if not text.startswith("e[", i):
            return super()._other(text, i)
        j = text.find("]", i)
        if j < 0:
            raise ValueError("unclosed '[' at position %d in form literal"
                             % (i + 1))
        idx, at = [], i + 2
        for piece in text[at:j].split(",") if at < j else ():
            try:
                idx.append(integer(piece))
            except ValueError:
                raise ValueError("bad index %r at position %d in form literal"
                                 % (piece, at)) from None
            at += len(piece) + 1
        return ("mono", tuple(idx)), j + 1

    def _atom(self, kind, val):
        if kind == "mono":
            return Form.monomial(self.n, val)
        return super()._atom(kind, val)

    def _apply(self, op, a, b):
        if isinstance(a, Scalar) and isinstance(b, Scalar):
            return super()._apply(op, a, b)
        if op == "*":
            if isinstance(a, Scalar):
                return b.scale(a)
            return a.scale(b) if isinstance(b, Scalar) else wedge(a, b)
        if op == "/":
            if isinstance(b, Form):
                if b.degree not in (0, None):
                    raise ValueError("division by a non-scalar form")
                b = scalar_value(b)
            return self._lift(a).scale(b.inverse())
        return super()._apply(op, self._lift(a), self._lift(b))

    def _lift(self, v):
        return Form(self.n, {(): v}) if isinstance(v, Scalar) else v

    def parse(self):
        return self._lift(super().parse())


def parse_form(text: str, n: int) -> Form:
    """Parse a form literal on R^n; scalars alone give degree-0 forms."""
    return _FormLiteral(text, n).parse()


def _coeff_text(c: Scalar):
    """(sign, body) pieces for one term's coefficient."""
    den, nums = c.c
    if len(nums) > 1:
        return "+", "(%s)*" % str(c)
    (k, x), = nums.items()
    body = ("" if k == 0 and abs(x) == den
            else _term_text(DIVISORS[k], abs(x), den) + "*")
    return ("-" if x < 0 else "+"), body


def form_literal(a: Form) -> str:
    """Canonical text form, terms in lex multi-index order."""
    if not a.terms:
        return "0"
    if a.degree == 0:
        return str(a.terms[()])
    parts = []
    for I in sorted(a.terms):
        sign, body = _coeff_text(a.terms[I])
        mono = "e[%s]" % ",".join(str(i) for i in I)
        parts.append((sign, body + mono))
    sign, first = parts[0]
    out = ("-" if sign == "-" else "") + first
    for sign, piece in parts[1:]:
        out += (" - " if sign == "-" else " + ") + piece
    return out
