import ast
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

import edsx
from edsx.linalg import (AffineSpace, Matrix, echelon_span, in_span,
                         kernel_basis, rank, rref, solve_affine, span_rank,
                         transpose)
from edsx.scalar import Scalar


def S(q):
    return Scalar.parse(str(q)) if isinstance(q, str) else Scalar.of(q)


def rows_of(data):
    return [[S(x) for x in row] for row in data]


def sparse(rows):
    """Sparse rows (or a sparse vector) of dense rows of Scalars."""
    if rows and isinstance(rows[0], Scalar):
        return {j: x.c for j, x in enumerate(rows) if x}
    return [sparse(r) for r in rows]


def sympy_rank(data):
    """The rank of dense rows of Scalars, by sympy."""
    return sympy.Matrix([[sum((sympy.Rational(q.numerator, q.denominator)
                               * sympy.sqrt(d) for d, q in x.coeffs().items()),
                              sympy.Integer(0)) for x in row]
                         for row in data]).rank(simplify=True)


def mul(rows, v):
    """m v as a list of Scalars, for sparse rows and a sparse vector."""
    return [sum((Scalar(c) * Scalar(v[j]) for j, c in r.items() if j in v),
                S(0)) for r in rows]


def test_rank_basics():
    m = sparse(rows_of([[1, 2, 3], [2, 4, 6], [0, 1, 1]]))
    assert span_rank(m, 3) == 2
    assert span_rank(transpose(m, 3), 3) == 2
    eye = rows_of([[int(i == j) for j in range(4)] for i in range(4)])
    assert span_rank(sparse(eye), 4) == 4
    assert span_rank(sparse(rows_of([[0] * 5] * 3)), 5) == 0
    assert span_rank([{}] * 3, 5) == 0


def test_rank_with_radicals():
    r2 = Scalar.sqrt(2)
    m = [[Scalar.of(1), r2], [r2, Scalar.of(2)]]
    assert span_rank(sparse(m), 2) == sympy_rank(m) == 1
    m2 = [[Scalar.of(1), r2], [r2, Scalar.of(3)]]
    assert span_rank(sparse(m2), 2) == sympy_rank(m2) == 2


def test_kernel_basis():
    m = sparse(rows_of([[1, 2, 3], [2, 4, 6]]))
    ker = kernel_basis(m, 3)
    assert len(ker) == 2
    for v in ker:
        assert all(x.is_zero() for x in mul(m, v))


def test_solve_affine_unique():
    m = sparse(rows_of([[2, 0], [0, 3]]))
    sol = solve_affine(m, 2, sparse([S(4), S(9)]))
    assert not sol.is_empty
    assert sol.dim == 0
    assert sol.particular == sparse([S(2), S(3)])


def test_solve_affine_underdetermined():
    m = sparse(rows_of([[1, 1, 0]]))
    sol = solve_affine(m, 3, {0: S(5).c})
    assert sol.dim == 2
    for v in [sol.particular] + [
            sparse([Scalar(sol.particular.get(j, {}))
                    + Scalar(bas.get(j, {})) for j in range(3)])
            for bas in sol.basis]:
        prod = mul(m, v)
        assert prod == [S(5)]


def test_solve_affine_empty():
    m = sparse(rows_of([[1, 1], [1, 1]]))
    sol = solve_affine(m, 2, {1: S(1).c})
    assert sol.is_empty
    assert sol.dim is None


def test_span_utilities():
    v1 = [S(1), S(0), S(2)]
    v2 = [S(0), S(1), S(0)]
    v3 = [a + b for a, b in zip(v1, v2)]
    assert span_rank(sparse([v1, v2, v3]), 3) == 2
    assert in_span(sparse([v1, v2]), sparse([S(2), S(3), S(4)]), 3)
    assert not in_span(sparse([v1, v2]), sparse([S(0), S(0), S(1)]), 3)
    assert in_span(sparse([v1]), {}, 3)
    assert not in_span([], sparse(v1), 3)
    # radical rows w1 = (1, r2, r3) and w2 = (0, 1, r6): r2 w1 and
    # r3 w1 + r2 w2 lie in their span, (0, 0, r2) does not
    r2, r3 = Scalar.sqrt(2), Scalar.sqrt(3)
    w1 = [S(1), r2, r3]
    w2 = [S(0), S(1), S("r6")]
    assert in_span(sparse([w1, w2]), sparse([x * r2 for x in w1]), 3)
    assert in_span(sparse([w1, w2]),
                   sparse([a * r3 + b * r2 for a, b in zip(w1, w2)]), 3)
    assert not in_span(sparse([w1, w2]), sparse([S(0), S(0), r2]), 3)
    assert not in_span(sparse([w1]), sparse(w2), 3)
    ech = echelon_span(sparse([v1, v2, v1]), 3)
    assert len(ech) == 2


def test_rref_is_canonical():
    # same row space in different presentations reduces identically
    rng = random.Random(5)
    base = rows_of([[1, 0, 2, 1], [0, 1, 1, 0]])
    for _ in range(25):
        mixed = [list(base[0]), list(base[1])]
        c = S(rng.randrange(-4, 5))
        mixed[1] = [x + c * y for x, y in zip(mixed[1], mixed[0])]
        if rng.random() < 0.5:
            mixed.reverse()
        mixed.append([S(0)] * 4)
        got = echelon_span(sparse(mixed), 4)
        assert got == echelon_span(sparse(base), 4)


def test_random_rank_transpose_agreement():
    rng = random.Random(31)
    for _ in range(60):
        nr = rng.randrange(1, 6)
        nc = rng.randrange(1, 6)
        data = [[S(rng.randrange(-3, 4)) for _ in range(nc)]
                for _ in range(nr)]
        r = span_rank(sparse(data), nc)
        assert r == span_rank(transpose(sparse(data), nc), nr)
        assert r == sympy_rank(data)
        assert r <= min(nr, nc)
        assert transpose(sparse(data), nc) == sparse(
            [list(col) for col in zip(*data)])
        assert len(kernel_basis(sparse(data), nc)) == nc - r


def test_affine_space_reports_dim():
    sp = AffineSpace(3, {}, [{0: S(1).c}])
    assert not sp.is_empty
    assert sp.dim == 1
    empty = AffineSpace(3, None, [])
    assert empty.is_empty


# The dense boundary: Matrix, rank and rref, which only the benchmark
# calls (see edsx.linalg).

def test_dense_boundary_cells_are_rational_dicts():
    r2 = Scalar.sqrt(2)
    data = [[S(1), r2, S("1/3")], [r2, S(2), S("r2/3")], [S(0), S(5), S(7)]]
    m = Matrix.from_rows(data)
    cells = [c for row in m._rows for c in row]
    reduced, pivots = rref(m)
    cells += [c for row in reduced._rows for c in row]
    assert all(type(c) is dict for c in cells)
    assert all(type(q) is Fraction for c in cells for q in c.values())
    assert m._rows[0][2] == {0: Fraction(1, 3)}
    assert m._rows[2][0] == {}
    assert reduced._rows[0][pivots[0]] == {0: Fraction(1)}
    assert rank(m) == span_rank(sparse(data), 3) == len(pivots) == 2


def test_from_rows_rejects_ragged_rows():
    with pytest.raises(ValueError, match="^ragged matrix rows$"):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError, match="^ragged matrix rows$"):
        Matrix.from_rows([[1, 2]], ncols=3)
    assert rank(Matrix.from_rows([])) == 0
    assert rank(Matrix.from_rows([[]])) == 0


def test_from_rows_coerces_every_entry_type():
    data = [[1, Fraction(-2, 3), "r2/3", Scalar.sqrt(5)],
            [0, "0", Fraction(0), S(0)]]
    m = Matrix.from_rows(data)
    want = [[S(1), S("-2/3"), S("r2/3"), Scalar.sqrt(5)], [S(0)] * 4]
    assert m._rows == Matrix.from_rows(want)._rows
    assert m._rows[1] == [{}] * 4
    assert rank(m) == span_rank(sparse(want), 4) == 1


def test_dense_rank_agrees_with_the_sparse_core_on_the_field_queries():
    # the rank queries of the benchmark's field workload, which calls
    # rank(Matrix.from_rows(rows)) on the parsed entries
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    queries = [q for q in workloads.generate("field", 1)
               if q["kind"] == "rank"]
    assert len(queries) == 400
    for q in queries:
        rows = [[Scalar.parse(t) for t in row] for row in q["rows"]]
        nrows, ncols = len(rows), len(rows[0])
        m = Matrix.from_rows(rows)
        r = rank(m)
        assert r == span_rank(transpose(sparse(rows), ncols), nrows)
        assert r == rank(m.transpose()) == len(rref(m)[1])


def test_only_the_field_modules_import_fractions():
    # the kernel scalar is the one exact format: Fraction is kept for the
    # literal parser and text output (scalar), the sampled hyperplanes
    # (stability) and the multipliers of the integer loop (_kernel)
    importers = set()
    for path in sorted(Path(edsx.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {node.module}
            elif isinstance(node, ast.Import):
                names = {a.name for a in node.names}
            else:
                continue
            if "fractions" in names:
                importers.add(path.stem)
    assert importers == {"scalar", "stability", "_kernel"}


def test_only_linalg_reaches_the_elimination_core():
    # every other module goes through the linalg entry points, so the
    # kernel's contract for eliminate (input rows consumed, pivot rows
    # without the leading 1, the list of row operations) has one client,
    # and no module reaches the integer loop or the certificate mod P
    # behind eliminate
    core = {"eliminate", "back_substitute", "_kernel_vectors", "_grading",
            "_forward_graded", "_graded_entry", "pivots_mod_p", "_certified"}
    offenders = []
    for path in sorted(Path(edsx.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            if names & core:
                offenders.append("%s:%d" % (path.name, node.lineno))
    assert offenders == []


def test_only_stability_and_the_polar_table_build_polar_rows():
    # c(W) has one owner: stability.PolarTable is the only caller of
    # orbit_matrix outside rep, where stabilizer takes its kernel, and no
    # module reaches past it for a private name of stability
    callers, private = set(), []

    def visit(node, module, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = node.name if scope is None else scope + "." + node.name
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                == "orbit_matrix"):
            callers.add((module, scope))
        if (isinstance(node, ast.ImportFrom)
                and node.module in ("stability", "edsx.stability")):
            private.extend((module, a.name) for a in node.names
                           if a.name.startswith("_"))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(Path(edsx.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert callers == {("rep", "stabilizer"),
                       ("stability", "PolarTable.count")}
    assert private == []
