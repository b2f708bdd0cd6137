"""Helpers the tests share and the program does not need.

`reference_solve` is Gauss-Jordan elimination to reduced row echelon form
over Fractions; `solve_affine` feeds rational rows to the program's
fraction-free integer solver, so the two can be compared on any input.
"""

from fractions import Fraction
from math import lcm

from bottsol.algebra import METRIC_SIGNS, Vec3, bilinear
from bottsol.scalar import Poly
from bottsol.soliton import UNKNOWNS, PointVerdict, _solve_integer_rows


def metric_pair(x: Vec3, y: Vec3) -> Poly:
    """g(x, y) = x1*y1 + x2*y2 - x3*y3."""
    total = Poly.zero()
    for sign, a, b in zip(METRIC_SIGNS, x.c, y.c):
        total = total + (a * b).scaled(sign)
    return total


def apply(conn, x: Vec3, y: Vec3) -> Vec3:
    """nabla_x y by bilinear expansion (valid for constant-component fields)."""
    return bilinear(conn.gamma, x, y)


def is_symmetric(form) -> bool:
    return all(form.at(i, j) == form.at(j, i) for i in (1, 2, 3) for j in (1, 2, 3))


def solve_affine(rows: list, n_unknowns: int) -> PointVerdict:
    """Exact solution of [A | b] rows meaning A*x + b = 0, rows of ints or Fractions.

    Each row is scaled by the least common multiple of its denominators, which
    keeps its solutions, and solved by the program's integer solver.
    """
    integer_rows = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        integer_rows.append([x.numerator * (scale // x.denominator) for x in row])
    return _solve_integer_rows(integer_rows, n_unknowns)


def reference_solve(rows: list, n_unknowns: int) -> PointVerdict:
    """Exact Gauss-Jordan elimination on [A | b] rows meaning A*x + b = 0."""
    m = [list(map(Fraction, row)) for row in rows]
    pivots = []
    r = 0
    for col in range(n_unknowns):
        pivot = next((k for k in range(r, len(m)) if m[k][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for k in range(len(m)):
            if k != r and m[k][col] != 0:
                factor = m[k][col]
                m[k] = [a - factor * b for a, b in zip(m[k], m[r])]
        pivots.append(col)
        r += 1
    for row in m[r:]:
        if row[n_unknowns] != 0:
            return PointVerdict(False)
    witness = [Fraction(0)] * n_unknowns
    for row_idx, col in enumerate(pivots):
        witness[col] = -m[row_idx][n_unknowns]
    return PointVerdict(True, dict(zip(UNKNOWNS, witness)), n_unknowns - len(pivots))
