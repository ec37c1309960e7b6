"""l1-minimal chain fillings by linear programming, certified exactly.

Every LP takes one path, `solve_float_then_verify`.  HiGHS's simplex, driven
through scipy's binding of its model API with presolve and log off, solves
the LP as assembled (one CSC matrix of the split columns x_j+, x_j-, of
the columns' own ints and Fractions) in floats.  Only its optimal basis is
read, in one call (`read_basis`): the basic split columns B and the
nonbasic rows R form a square system, and one rational row reduction of
[B | b | I] gives x_B = B^-1 b and the dual y_R = 1^T B^-1; every other x_j
and y_i is 0.  x is returned only when the certificate holds exactly:
A x = b, |A^T y|_inf <= 1 and b.y = |x|_1, which by weak duality makes x
l1-minimal; the dual check visits only the columns that meet y's support.
That certificate is the only gate: a basis that fails it raises
Infeasible.  A model without nonzeros never reaches HiGHS, and a model
that passModel does not take as passed (kWarning: it dropped entries of
at most 1e-9) raises Infeasible before it is solved.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, lcm

from .errors import Infeasible


def solve_float_then_verify(columns: list[dict[int, Fraction]],
                            target: dict[int, Fraction],
                            n_rows: int) -> list[Fraction]:
    """min sum |x_j| s.t. sum_j x_j * col_j = target: HiGHS's optimal
    basis, the exact primal and dual on it, and their certificate."""
    try:
        from scipy.optimize._highspy._core import (
            HighsModelStatus, HighsStatus, MatrixFormat, ObjSense, _Highs)
    except ImportError as exc:
        raise ImportError("the filling LP needs scipy >= 1.17, whose "
                          "scipy.optimize._highspy._core it drives") from exc

    # ints and Fractions as they are: the binding converts each to the
    # float that float() gives
    data, indices, indptr = [], [], [0]
    for col in columns:
        vals = col.values()
        data += vals
        data += [-v for v in vals]
        indices += col
        indices += col
        end = indptr[-1] + len(col)
        indptr += end, end + len(col)
    if not any(data):
        # HiGHS answers a model without nonzeros without factorizing, and
        # reading its basis then crashes the interpreter; x = 0 is the only
        # candidate
        x = [Fraction(0)] * len(columns)
        certify(columns, target, x, [Fraction(0)] * n_rows)
        return x
    n = 2 * len(columns)
    b = [target.get(i, 0) for i in range(n_rows)]
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("presolve", "off")
    status = highs.passModel(n, n_rows, len(data), MatrixFormat.kColwise,
                             ObjSense.kMinimize, 0., [1.] * n, [0.] * n,
                             [inf] * n, b, b, indptr, indices, data, [0] * n)
    if status != HighsStatus.kOk:
        # kWarning: HiGHS dropped entries of at most 1e-9, and reading the
        # basis of what is left may crash the interpreter
        raise Infeasible(f"float LP failed: passModel returned {status.name}")
    highs.run()
    if highs.getModelStatus() != HighsModelStatus.kOptimal:
        raise Infeasible("float LP failed: " + highs.modelStatusToString(
            highs.getModelStatus()))
    cols, rows = read_basis(highs, n_rows)
    # split column k is (-1)^k columns[k // 2]
    mat = [[Fraction((-1) ** k * columns[k // 2].get(i, 0)) for k in cols]
           + [Fraction(target.get(i, 0))]
           + [Fraction(r == i) for r in rows] for i in rows]
    row_reduce(mat, len(cols))
    x, y = [Fraction(0)] * len(columns), [Fraction(0)] * n_rows
    for k, row in zip(cols, mat):
        x[k // 2] = (-1) ** k * row[len(cols)]
        for i, v in zip(rows, row[len(cols) + 1:]):
            y[i] += v
    certify(columns, target, x, y)
    return x


def read_basis(highs, n_rows: int) -> tuple[list[int], list[int]]:
    """The basic split columns, increasing, and the nonbasic rows of a
    solved `_Highs`: getBasicVariables names one per basis row, a split
    column k >= 0 or the slack of row -1 - k."""
    from scipy.optimize._highspy._core import HighsStatus
    status, basic = highs.getBasicVariables()
    if status != HighsStatus.kOk:
        raise Infeasible("float LP failed: no basis to read")
    basic = basic.tolist()
    slack = {-1 - k for k in basic if k < 0}
    return (sorted(k for k in basic if k >= 0),
            [i for i in range(n_rows) if i not in slack])


def certify(columns: list[dict[int, Fraction]], target: dict[int, Fraction],
            x: list[Fraction], y: list[Fraction]) -> None:
    """Raise Infeasible unless y proves x l1-minimal: A x = b,
    |A^T y|_inf <= 1 and b.y = |x|_1.  The dual checks run in integers,
    on y scaled by its common denominator, and visit only the columns that
    meet y's support: A^T y is 0 on every other column."""
    got: dict[int, Fraction] = {}
    for col, c in zip(columns, x):
        if c:
            for i, v in col.items():
                got[i] = got.get(i, 0) + c * v
    if {i: v for i, v in got.items() if v} != \
            {i: v for i, v in target.items() if v}:
        raise Infeasible("certificate: A x != b")
    scale = lcm(*(v.denominator for v in y))
    ys = {i: v.numerator * (scale // v.denominator)
          for i, v in enumerate(y) if v}
    on = ys.keys()
    for j, col in enumerate(columns):
        if not on.isdisjoint(col) and abs(sum(
                v * ys[i] for i, v in col.items() if i in on)) > scale:
            raise Infeasible(f"certificate: |A^T y| > 1 on column {j}")
    norm = sum((abs(c) for c in x if c), Fraction(0))
    if sum(v * ys[i] for i, v in target.items() if i in on) != scale * norm:
        raise Infeasible(f"certificate: b.y != |x|_1 = {norm}")


def row_reduce(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Bring `rows` to reduced row echelon form over Q in place, pivoting in
    the first `ncols` columns only (later columns ride along, e.g. a right
    hand side).  Returns the pivot column of each leading row; its length is
    the rank."""
    pivots: list[int] = []
    for col in range(ncols):
        top = len(pivots)
        sel = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if sel is None:
            continue
        rows[top], rows[sel] = rows[sel], rows[top]
        piv = rows[top][col]
        rows[top] = [v / piv for v in rows[top]]
        for r, row in enumerate(rows):
            if r != top and row[col]:
                f = row[col]
                rows[r] = [v - f * w for v, w in zip(row, rows[top])]
        pivots.append(col)
    return pivots
