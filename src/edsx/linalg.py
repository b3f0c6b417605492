"""Exact linear algebra over the scalar field, on sparse rows.

A row or vector is a {column: coefficient} dict over columns 0..ncols-1
that holds only nonzero coefficients, each a kernel scalar (a denominator
and integer numerators, see edsx._kernel); exterior.coords builds them
straight from Form.terms.  Everything reduces to one deterministic
elimination (see edsx._kernel for the pivot rule), so ranks, kernels,
and affine solves are canonical: the same input always yields the same
basis vectors.  Elimination factors one matrix once, by the forward
phase alone: its rank is the pivot count, and each later right-hand side
is solved by replaying the forward row operations on it and then a
triangular back-solve through the forward pivot rows.  Only a kernel
needs the reduced form, so the back-substitution runs on demand, once,
when the kernel is first read.  No function here mutates the rows it is
given.

Matrix, rank and rref are the dense boundary.  Nothing in this package
calls them: they stay only because the benchmark calls Matrix.from_rows
and rank (perfbench/child.py, perfbench/verify.py) and its tracer's
self-test requires every name it wraps, the kernel's dense entry
included.  They go when the benchmark moves onto span_rank.  A Matrix
holds dense lists of {mask: Fraction} cells, and rank and rref pass them
to the kernel's dense entry, which converts them to kernel scalars and
back.
"""

from __future__ import annotations

from ._kernel import back_substitute, eliminate
from ._kernel import rref as _rref_rows
from ._kernel import ONE, s_add, s_mul, s_neg, s_submul, s_to_fractions
from .scalar import as_scalar


class Matrix:
    """Dense matrix; entries are Scalars on the outside, {mask: Fraction}
    cells inside.  Only the benchmark uses it (see the module docstring)."""

    __slots__ = ("nrows", "ncols", "_rows")

    def __init__(self, nrows, ncols, rows):
        self.nrows = nrows
        self.ncols = ncols
        self._rows = rows

    @classmethod
    def from_rows(cls, rows, ncols=None):
        rows = [[s_to_fractions(as_scalar(x).c) for x in r] for r in rows]
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


class AffineSpace:
    """Solution set x0 + span(basis); particular None marks empty.

    basis is a list of sparse vectors, or the Elimination whose right
    kernel spans the directions: then dim is read off its rank and the
    list is built on first access, so a caller that needs only dim never
    pays for the kernel.
    """

    __slots__ = ("ambient_dim", "particular", "_basis")

    def __init__(self, ambient_dim, particular, basis):
        self.ambient_dim = ambient_dim
        self.particular = particular
        self._basis = basis

    @property
    def basis(self):
        b = self._basis
        if isinstance(b, Elimination):
            b = self._basis = [dict(v) for v in b.kernel_vectors().values()]
        return b

    @property
    def is_empty(self):
        return self.particular is None

    @property
    def dim(self):
        """Affine dimension, or None for the empty set."""
        if self.particular is None:
            return None
        b = self._basis
        if isinstance(b, Elimination):
            return b.ncols - b.rank
        return len(b)

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


class Elimination:
    """Solves m x = b for every right-hand side b of one matrix m.

    m is eliminated once, on first use, by the forward phase alone (see
    edsx._kernel.eliminate), and three things are kept: the pivot
    columns, the forward pivot rows F and the forward row operations.
    Each query pays only for what it reads.  The rank is the number of
    pivots.  particular(b) replays the operations on b, one pivot step at
    a time, and skips a step whose pivot row is zero in b; this reduces b
    as the forward phase reduces an augmented column: the entries left on
    rows that never became pivot rows are the residual, which must be
    exactly zero, and the entries on pivot rows are the right-hand side
    of the triangular system F x = y, which is back-solved with every
    free column zero.  That solution is unique and the arithmetic exact,
    so it is the canonical particular solution that solve_affine reads
    off the RREF.  The right kernel needs the reduced rows: the first
    kernel_vectors() call back-substitutes a copy of F, once.
    """

    __slots__ = ("nrows", "ncols", "_rows", "_pivots", "_prows", "_ops",
                 "_kernel")

    def __init__(self, rows, ncols):
        self.nrows = len(rows)
        self.ncols = ncols
        self._rows = rows
        self._pivots = self._prows = self._ops = self._kernel = None

    def _eliminate(self):
        if self._ops is None:
            self._ops = []
            self._pivots, self._prows = eliminate(
                [dict(r) for r in self._rows], self.ncols, reduced=False,
                ops=self._ops)
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
        for p, inv, targets in self._ops:
            x = b.get(p)
            if not x:
                continue
            if inv is not ONE:
                x = b[p] = s_mul(x, inv)
            for i, c in targets:
                new = s_submul(b.get(i), c, x)
                if new:
                    b[i] = new
                else:
                    del b[i]
        y = [b.pop(p, None) for p, _, _ in self._ops]
        if b:
            return None
        # back-solve F x = y, free columns zero: row t holds only columns
        # right of its pivot, so x on them is known when row t is reached
        x = {}
        for t in range(len(y) - 1, -1, -1):
            v = y[t]
            for k, c in self._prows[t].items():
                xk = x.get(k)
                if xk:
                    v = s_submul(v, c, xk)
            if v:
                x[self._pivots[t]] = v
        return {j: x[j] for j in self._pivots if j in x}

    def kernel_vectors(self):
        """The right kernel as {free column: sparse vector}.

        The vector of free column f is a unit there and zero on the other
        free columns.  The dicts are shared; callers must not mutate them.
        """
        if self._kernel is None:
            self._eliminate()
            prows = [dict(r) for r in self._prows]
            back_substitute(self._pivots, prows)
            self._kernel = _kernel_vectors(self._pivots, prows, self.ncols)
        return self._kernel

    def rank_with_kernel(self, rows):
        """Rank of the sparse rows g together with the right kernel of m.

        The span of the rows and ker m has dimension dim ker m plus the
        rank of the vectors m g.  F has the row space of m, so F g is an
        invertible image of m g and has the same rank: each F g is summed
        through a column index of F, and no kernel vector is needed.
        """
        self._eliminate()
        column = {}
        for t, (j, prow) in enumerate(zip(self._pivots, self._prows)):
            column.setdefault(j, []).append((t, ONE))
            for k, c in prow.items():
                column.setdefault(k, []).append((t, c))
        images = []
        for g in rows:
            # -F g, whose rank is that of F g
            out = {}
            for k, gk in g.items():
                for t, c in column.get(k, ()):
                    out[t] = s_submul(out.get(t), c, gk)
            images.append({t: v for t, v in out.items() if v})
        return (self.ncols - len(self._pivots)
                + span_rank(images, len(self._pivots)))

    def solve(self, rhs) -> AffineSpace:
        """Equal to solve_affine(m, ncols, rhs); the basis is built from the
        kernel on first access."""
        part = self.particular(rhs)
        if part is None:
            return AffineSpace(self.ncols, None, [])
        return AffineSpace(self.ncols, part, self)


def span_rank(rows, ncols) -> int:
    """Rank of sparse rows over ncols columns."""
    return len(eliminate([dict(r) for r in rows], ncols, reduced=False)[0])


def in_span(rows, v, ncols) -> bool:
    """True when the sparse vector v is a combination of the sparse rows."""
    return Elimination(transpose(rows, ncols), len(rows)).particular(v) \
        is not None


def combine(rows, coeffs):
    """The sparse sum of rows[k] times coeffs[k] over a sparse vector coeffs."""
    out = {}
    for k, c in coeffs.items():
        for j, x in rows[k].items():
            x = s_add(out.get(j), s_mul(x, c))
            if x:
                out[j] = x
            else:
                del out[j]
    return out


def echelon_span(rows, ncols):
    """Canonical echelon basis of the span of sparse rows, leading 1 first."""
    pivots, prows = eliminate([dict(r) for r in rows], ncols)
    out = []
    for p, prow in zip(pivots, prows):
        out.append({p: ONE, **prow})
    return out
