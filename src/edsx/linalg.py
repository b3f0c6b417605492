"""Exact linear algebra over the scalar field, on sparse rows.

A row or vector is a {column: coefficient} dict over columns 0..ncols-1
that holds only nonzero coefficients, each a kernel scalar (a denominator
and integer numerators, see edsx._kernel); exterior.coords builds them
straight from Form.terms.  Everything reduces to one deterministic
elimination (see edsx._kernel for the pivot rule), so ranks, kernels,
and affine solves are canonical.  Every kernel is read off its reduced
rows, by kernel_basis, solve_affine and echelon_span; Elimination keeps
one matrix and reads its rank and particular solutions off the forward
phase alone.  No function here mutates the rows it is given.

Rank-only questions are cheaper: span_rank, Elimination.rank before a
factorization (and the dense rank, through the kernel's dense entry)
run an elimination that keeps no pivot rows and normalizes none it need
not.  It first tries a rank mod P at the first multi-term pivot lead,
and answers from it only when it is certified exact: the rank mod P, a
lower bound, reaches the upper bound min(rows, cols), and for a pivot
list the pivots mod P are the leading columns.  Every other case goes on
with the exact elimination (see edsx._kernel).

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

from ._kernel import eliminate
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
    """Solution set x0 + span(basis), basis a list of sparse vectors;
    particular None marks empty."""

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


class Elimination:
    """The rank and the particular solutions of m x = b of one matrix m;
    kernel_basis gives its kernel vectors.

    The rows of m are kept as given, and each query pays only for what it
    reads.  The first particular() call factors a copy of the rows by the
    forward phase alone (see edsx._kernel.eliminate), and three things
    are kept: the pivot columns, the forward pivot rows F and the forward
    row operations.  particular(b) replays the operations on b, one pivot
    step at a time, and skips a step whose pivot row is zero in b; this
    reduces b as the forward phase reduces an augmented column: the
    entries left on rows that never became pivot rows are the residual,
    which must be exactly zero, and the entries on pivot rows are the
    right-hand side of the triangular system F x = y, which is
    back-solved with every free column zero.  That solution is unique and
    the arithmetic exact, so it is the canonical particular solution that
    solve_affine reads off the RREF.

    The rank is the pivot count once m is factored.  Before that it is
    one rank-only elimination, kept, of a copy of the rows whose columns
    are renumbered by how many rows hold them, fewest first: a rank does
    not depend on the column order, and this one makes fewer row
    updates than the leftmost order the factorization needs.

    The rows it is built from are kept, and edsx.dga.Analysis.equivariant
    reads them, so the caller must not mutate them afterwards.
    """

    __slots__ = ("nrows", "ncols", "_rows", "_rank", "_pivots", "_prows",
                 "_ops")

    def __init__(self, rows, ncols):
        self.nrows = len(rows)
        self.ncols = ncols
        self._rows = rows
        self._rank = self._pivots = self._prows = self._ops = None

    @property
    def rank(self):
        if self._rank is None:
            count = [0] * self.ncols
            for row in self._rows:
                for j in row:
                    count[j] += 1
            at = [0] * self.ncols
            # sorted is stable: ties stay in column order
            for new, j in enumerate(sorted(range(self.ncols),
                                           key=count.__getitem__)):
                at[j] = new
            self._rank = len(eliminate(
                [{at[j]: c for j, c in r.items()} for r in self._rows],
                self.ncols, reduced=False, certify="rank")[0])
        return self._rank

    def particular(self, rhs):
        """The particular solution of solve_affine(m, ncols, rhs), or None.

        rhs and the result are sparse vectors.
        """
        _check_rhs(rhs, self.nrows)
        if not rhs:
            return {}
        if self._ops is None:
            self._ops = []
            self._pivots, self._prows = eliminate(
                [dict(r) for r in self._rows], self.ncols, reduced=False,
                ops=self._ops)
            self._rank = len(self._pivots)
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


def span_rank(rows, ncols) -> int:
    """Rank of sparse rows over ncols columns; a rank mod P that reaches
    min(rows, cols) answers it without the rest of the exact elimination
    (see edsx._kernel)."""
    return len(eliminate([dict(r) for r in rows], ncols, reduced=False,
                         certify="rank")[0])


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
