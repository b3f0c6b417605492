"""Exact linear algebra over the scalar field, on sparse rows.

A row or vector is a {column: coefficient} dict over columns 0..ncols-1
that holds only nonzero coefficients, each a kernel scalar (a denominator
and integer numerators, see edsx._kernel); exterior.coords builds them
straight from Form.terms.  Everything reduces to one deterministic
elimination (see edsx._kernel for the pivot rule), so ranks, kernels,
and affine solves are canonical: the same input always yields the same
basis vectors.  No function here mutates
the rows it is given.

Matrix, rank and rref are the dense boundary, for callers holding dense
rows of Scalars: a Matrix holds dense lists of {mask: Fraction} cells
and rank and rref pass them to the kernel's dense entry, which converts
them to kernel scalars and back.
"""

from __future__ import annotations

from ._kernel import eliminate
from ._kernel import rref as _rref_rows
from ._kernel import ONE, s_add, s_mul, s_neg, s_to_fractions
from .scalar import as_scalar


def _unwrap(v):
    return [s_to_fractions(as_scalar(x).c) for x in v]


class Matrix:
    """Dense matrix; entries are Scalars on the outside, {mask: Fraction}
    cells inside."""

    __slots__ = ("nrows", "ncols", "_rows")

    def __init__(self, nrows, ncols, rows):
        self.nrows = nrows
        self.ncols = ncols
        self._rows = rows

    @classmethod
    def from_rows(cls, rows, ncols=None):
        rows = [_unwrap(r) for r in rows]
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged matrix rows")
        return cls(len(rows), ncols, rows)

    def transpose(self) -> "Matrix":
        rows = [[dict(self._rows[i][j]) for i in range(self.nrows)]
                for j in range(self.ncols)]
        return Matrix(self.ncols, self.nrows, rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.nrows, self.ncols, self._rows) == (
            other.nrows, other.ncols, other._rows)

    def __repr__(self):
        return "Matrix(%d x %d)" % (self.nrows, self.ncols)


class AffineSpace:
    """Solution set x0 + span(basis); particular None marks empty."""

    __slots__ = ("ambient_dim", "particular", "basis")

    def __init__(self, ambient_dim, particular, basis):
        self.ambient_dim = ambient_dim
        self.particular = particular
        self.basis = basis

    @property
    def is_empty(self):
        return self.particular is None

    @property
    def dim(self):
        """Affine dimension, or None for the empty set."""
        if self.particular is None:
            return None
        return len(self.basis)

    def __repr__(self):
        if self.is_empty:
            return "AffineSpace(EMPTY)"
        return "AffineSpace(dim=%d in %d)" % (self.dim, self.ambient_dim)


def rref(m: Matrix):
    """Canonical reduced row echelon form and the pivot column list."""
    rows = list(m._rows)
    pivots = _rref_rows(rows, m.ncols)
    return Matrix(m.nrows, m.ncols, rows), pivots


def rank(m: Matrix) -> int:
    return len(_rref_rows(m._rows, m.ncols, reduced=False))


def transpose(rows, ncols):
    """The ncols rows of the transpose of sparse rows over ncols columns."""
    out = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, c in row.items():
            out[j][i] = c
    return out


def _check_rhs(rhs, nrows):
    if rhs and not 0 <= min(rhs) <= max(rhs) < nrows:
        raise ValueError("rhs entry outside rows 0..%d" % (nrows - 1))


def _kernel_vectors(pivots, prows, ncols):
    """Right kernel from reduced pivot rows, keyed by free column.

    The vector of free column f is a unit there and holds the negated
    column f entries of the pivot rows; entries at ncols or beyond (an
    augmented block) are ignored.  Vectors are sparse, in ascending
    free-column order.
    """
    pivset = set(pivots)
    out = {f: {f: ONE} for f in range(ncols) if f not in pivset}
    for p, prow in zip(pivots, prows):
        for k, c in prow.items():
            v = out.get(k)
            if v is not None:
                v[p] = s_neg(c)
    return out


def kernel_basis(rows, ncols):
    """Right kernel, one basis vector per free column (unit there)."""
    pivots, prows = eliminate([dict(r) for r in rows], ncols)
    return list(_kernel_vectors(pivots, prows, ncols).values())


def solve_affine(rows, ncols, rhs) -> AffineSpace:
    """All x with m x = rhs as an AffineSpace (possibly empty).

    m is given by its sparse rows over ncols columns, rhs is a sparse
    {row: coefficient} vector.
    """
    _check_rhs(rhs, len(rows))
    srows = [dict(r) for r in rows]
    for i, b in rhs.items():
        srows[i][ncols] = b
    pivots, prows = eliminate(srows, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return AffineSpace(ncols, None, [])
    part = {p: prow[ncols] for p, prow in zip(pivots, prows) if ncols in prow}
    kern = _kernel_vectors(pivots, prows, ncols)
    return AffineSpace(ncols, part, list(kern.values()))


def _dot(row, b):
    """Sum of row[i] * b[i] over two {index: coefficient} dicts."""
    if len(b) < len(row):
        row, b = b, row
    acc = None
    for i, c in row.items():
        x = b.get(i)
        if x:
            acc = s_add(acc, s_mul(c, x))
    return acc


class Elimination:
    """Solves m x = b for every right-hand side b of one matrix m.

    The canonical RREF of [m | I] is [R | E], with E invertible and
    E m = R.  E b is then b reduced as solve_affine would reduce it: its
    entries past the rank of m are the residual, which must be exactly
    zero, and the others give the canonical particular solution, zero on
    the free columns.  Each part is computed on first use and kept sparse:
    the rows of m until E exists, the pivot columns, the right kernel of
    m and the nonzero entries of E.  The rank, the kernel and b = 0 need
    only m itself eliminated, so E is built on the first nonzero b.
    """

    __slots__ = ("nrows", "ncols", "_entries", "_pivots", "_kernel",
                 "_lift", "_residual")

    def __init__(self, rows, ncols):
        self.nrows = len(rows)
        self.ncols = ncols
        self._entries = rows
        self._pivots = self._kernel = self._lift = self._residual = None

    def _eliminate(self, with_e):
        ncols = self.ncols
        srows = [dict(r) for r in self._entries]
        if with_e:
            for i, r in enumerate(srows):
                r[ncols + i] = ONE
        pivots, prows = eliminate(
            srows, ncols + self.nrows if with_e else ncols)
        rank = sum(1 for p in pivots if p < ncols)
        self._pivots = pivots[:rank]
        self._kernel = _kernel_vectors(self._pivots, prows, ncols)
        if with_e:
            # [m | I] has full row rank, so every row is a pivot row; the
            # leading 1 of a row past the rank sits in the E block
            e = []
            for p, prow in zip(pivots, prows):
                r = {k - ncols: c for k, c in prow.items() if k >= ncols}
                if p >= ncols:
                    r[p - ncols] = ONE
                e.append(dict(sorted(r.items())))
            self._lift = e[:rank]
            self._residual = e[rank:]
            self._entries = None

    @property
    def rank(self):
        if self._pivots is None:
            self._eliminate(False)
        return len(self._pivots)

    def particular(self, rhs):
        """The particular solution of solve_affine(m, ncols, rhs), or None.

        rhs and the result are sparse vectors.
        """
        _check_rhs(rhs, self.nrows)
        if not rhs:
            return {}
        if self._lift is None:
            self._eliminate(True)
        if any(_dot(r, rhs) for r in self._residual):
            return None
        part = {}
        for p, r in zip(self._pivots, self._lift):
            x = _dot(r, rhs)
            if x:
                part[p] = x
        return part

    def kernel_vectors(self):
        """The right kernel as {free column: sparse vector}.

        The vector of free column f is a unit there and zero on the other
        free columns.  The dicts are shared; callers must not mutate them.
        """
        if self._kernel is None:
            self._eliminate(False)
        return self._kernel

    def solve(self, rhs) -> AffineSpace:
        """Equal to solve_affine(m, ncols, rhs)."""
        part = self.particular(rhs)
        if part is None:
            return AffineSpace(self.ncols, None, [])
        return AffineSpace(self.ncols, part,
                           [dict(v) for v in self.kernel_vectors().values()])


def span_rank(rows, ncols) -> int:
    """Rank of sparse rows over ncols columns."""
    return len(eliminate([dict(r) for r in rows], ncols, reduced=False)[0])


def in_span(rows, v, ncols) -> bool:
    """True when the sparse vector v is a combination of the sparse rows."""
    return not solve_affine(transpose(rows, ncols), len(rows), v).is_empty


def echelon_span(rows, ncols):
    """Canonical echelon basis of the span of sparse rows, leading 1 first."""
    pivots, prows = eliminate([dict(r) for r in rows], ncols)
    out = []
    for p, prow in zip(pivots, prows):
        out.append({p: ONE, **prow})
    return out
