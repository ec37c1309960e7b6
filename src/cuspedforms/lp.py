"""l1-minimal chain fillings by linear programming, certified exactly.

Every LP takes one path, `solve_float_then_verify`.  HiGHS's simplex
(through scipy) solves it in floats on the LP as assembled: one CSC matrix
of the split columns, x_j+ and x_j- side by side, and no presolve, which
cost more than it saved (median linprog 6.2 -> 3.8 ms on the 27 LPs of a
seed-1 `lpfill` cold pass, 13.2 -> 8.0 ms on kappa = 3 windows of up to
1,930 columns).  The primal x is rebuilt exactly by rational row reduction
on the columns the float answer uses, over the rows that those columns or
b touch (every other row is zero there), and HiGHS's row duals,
rationalised, give a dual vector y.  x is returned only when the
certificate holds exactly: A x = b, |A^T y|_inf <= 1 and b.y = |x|_1,
which by weak duality makes x an l1-minimal solution.  The certificate is
the only gate: a float answer that fails it raises Infeasible.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import Infeasible

#: largest denominator a rationalised dual may have; the duals of filling
#: LPs are integers, and those of small random LPs have small denominators
DUAL_DENOMINATOR = 10 ** 6


def solve_float_then_verify(columns: list[dict[int, Fraction]],
                            target: dict[int, Fraction],
                            n_rows: int) -> list[Fraction]:
    """min sum |x_j| s.t. sum_j x_j * col_j = target: HiGHS float solve,
    exact primal on the float support, exact dual certificate."""
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import csc_matrix

    data, indices, indptr = [], [], [0]
    for col in columns:
        vals = [float(v) for v in col.values()]
        data += vals + [-v for v in vals]
        indices += [*col, *col]
        indptr += (indptr[-1] + len(vals), indptr[-1] + 2 * len(vals))
    A = csc_matrix((data, indices, indptr), shape=(n_rows, 2 * len(columns)))
    b = np.array([float(target.get(i, 0)) for i in range(n_rows)])
    res = linprog(np.ones(2 * len(columns)), A_eq=A, b_eq=b, bounds=(0, None),
                  method="highs", options={"presolve": False})
    if not res.success:
        raise Infeasible(f"float LP failed: {res.message}")
    signed = res.x[0::2] - res.x[1::2]
    support = [j for j in range(len(columns)) if abs(signed[j]) > 1e-9]
    # a row that neither the support nor b touches is zero: it holds no
    # pivot and cannot show b outside the span
    touched = set(target).union(*(columns[j] for j in support))
    mat = [[Fraction(columns[j].get(i, 0)) for j in support]
           + [Fraction(target.get(i, 0))] for i in sorted(touched)]
    pivots = row_reduce(mat, len(support))
    if any(row[-1] for row in mat[len(pivots):]):
        raise Infeasible("exact reconstruction on the float support "
                         "failed: its columns do not span b")
    x = [Fraction(0)] * len(columns)
    for row, k in zip(mat, pivots):
        x[support[k]] = row[-1]
    y = [Fraction(v).limit_denominator(DUAL_DENOMINATOR)
         for v in res.eqlin.marginals]
    certify(columns, target, x, y)
    return x


def certify(columns: list[dict[int, Fraction]], target: dict[int, Fraction],
            x: list[Fraction], y: list[Fraction]) -> None:
    """Raise Infeasible unless y proves x l1-minimal: A x = b,
    |A^T y|_inf <= 1 and b.y = |x|_1.  The dual checks run in integers,
    on y scaled by its common denominator."""
    got: dict[int, Fraction] = {}
    for col, c in zip(columns, x):
        if c:
            for i, v in col.items():
                got[i] = got.get(i, 0) + c * v
    if {i: v for i, v in got.items() if v} != \
            {i: v for i, v in target.items() if v}:
        raise Infeasible("certificate: A x != b")
    scale = lcm(*(v.denominator for v in y))
    ys = [v.numerator * (scale // v.denominator) for v in y]
    for j, col in enumerate(columns):
        if abs(sum(v * ys[i] for i, v in col.items())) > scale:
            raise Infeasible(f"certificate: |A^T y| > 1 on column {j}")
    norm = sum((abs(c) for c in x if c), Fraction(0))
    if sum(v * ys[i] for i, v in target.items()) != scale * norm:
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
