"""Exact linear algebra over the scalar field, on sparse rows.

A row or vector is a {column: coefficient} dict over columns 0..ncols-1
that holds only nonzero coefficients, each a kernel scalar (a denominator
and integer numerators, see edsx._kernel); exterior.coords builds them
straight from Form.terms.  Everything reduces to one deterministic
elimination (see edsx._kernel for the pivot rule), so ranks, kernels,
and affine solves are canonical: the same input always yields the same
basis vectors.  Elimination eliminates one matrix once and solves each
later right-hand side by replaying the row operations of that
elimination on it.  No function here mutates the rows it is given.

Matrix, rank and rref are the dense boundary, for callers holding dense
rows of Scalars: a Matrix holds dense lists of {mask: Fraction} cells
and rank and rref pass them to the kernel's dense entry, which converts
them to kernel scalars and back.
"""

from __future__ import annotations

from ._kernel import eliminate
from ._kernel import rref as _rref_rows
from ._kernel import ONE, s_mul, s_neg, s_submul, s_to_fractions
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
    pivots, prows, _ = eliminate([dict(r) for r in rows], ncols)
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
    pivots, prows, _ = eliminate(srows, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return AffineSpace(ncols, None, [])
    part = {p: prow[ncols] for p, prow in zip(pivots, prows) if ncols in prow}
    kern = _kernel_vectors(pivots, prows, ncols)
    return AffineSpace(ncols, part, list(kern.values()))


class Elimination:
    """Solves m x = b for every right-hand side b of one matrix m.

    m is eliminated once, on first use, and three things are kept: the
    pivot columns, the right kernel of m and the row operations of that
    elimination (see edsx._kernel.eliminate).  particular(b) replays the
    operations on b, which reduces b as solve_affine reduces its augmented
    column: the entries left on rows that never became pivot rows are the
    residual, which must be exactly zero, and the entries on pivot rows
    give the canonical particular solution, zero on the free columns.
    """

    __slots__ = ("nrows", "ncols", "_rows", "_pivots", "_kernel", "_ops")

    def __init__(self, rows, ncols):
        self.nrows = len(rows)
        self.ncols = ncols
        self._rows = rows
        self._pivots = self._kernel = self._ops = None

    def _eliminate(self):
        if self._ops is None:
            self._pivots, prows, self._ops = eliminate(
                [dict(r) for r in self._rows], self.ncols)
            self._kernel = _kernel_vectors(self._pivots, prows, self.ncols)
            self._rows = None

    @property
    def rank(self):
        self._eliminate()
        return len(self._pivots)

    def particular(self, rhs):
        """The particular solution of solve_affine(m, ncols, rhs), or None.

        rhs and the result are sparse vectors.
        """
        _check_rhs(rhs, self.nrows)
        if not rhs:
            return {}
        self._eliminate()
        b = dict(rhs)
        sources = []
        for op in self._ops:
            if len(op) == 2:
                p, inv = op
                sources.append(p)
                x = b.get(p)
                if x and inv is not ONE:
                    b[p] = s_mul(x, inv)
            else:
                i, p, c = op
                x = b.get(p)
                if x:
                    new = s_submul(b.get(i), c, x)
                    if new:
                        b[i] = new
                    else:
                        del b[i]
        part = {}
        for j, p in zip(self._pivots, sources):
            x = b.pop(p, None)
            if x:
                part[j] = x
        return None if b else part

    def kernel_vectors(self):
        """The right kernel as {free column: sparse vector}.

        The vector of free column f is a unit there and zero on the other
        free columns.  The dicts are shared; callers must not mutate them.
        """
        self._eliminate()
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
    pivots, prows, _ = eliminate([dict(r) for r in rows], ncols)
    out = []
    for p, prow in zip(pivots, prows):
        out.append({p: ONE, **prow})
    return out
