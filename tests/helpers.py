"""Helpers the tests share and the program does not need.

`reference_solve` is Gauss-Jordan elimination to reduced row echelon form
over Fractions; `solve_affine` feeds rational rows to the program's
fraction-free integer solver, so the two can be compared on any input.
`reference_at` evaluates compiled integer rows by a plain loop, against
which the program's generated evaluator is compared, and `ratfun_eval_at`
evaluates a quotient at a point, against which the compiled family bindings
are compared.
"""

from fractions import Fraction
from math import lcm

from bottsol.algebra import GROUPS, METRIC_SIGNS, Vec3, bilinear
from bottsol.connection import DISTRIBUTIONS
from bottsol.pipeline import eta_signs
from bottsol.scalar import DenominatorZero, Poly, RatFun, UnboundParameter
from bottsol.soliton import UNKNOWNS, IntegerRows, PointVerdict, _solve_integer_rows


def all_configurations():
    """Yield (group, dist_name, perturbed, eta_sign) over the whole catalog."""
    for group in GROUPS:
        for dist_name in DISTRIBUTIONS:
            for perturbed in (False, True):
                for eta in eta_signs(group):
                    yield group, dist_name, perturbed, eta


def power(p: Poly, n: int) -> Poly:
    """p^n as a product of n factors."""
    result = Poly.const(1)
    for _ in range(n):
        result = result * p
    return result


def ratfun_eval_at(r: RatFun, point) -> Fraction:
    """Exact value of r at a point that binds every parameter of r."""
    den = r.den.eval_at(point)
    if den == 0:
        raise DenominatorZero(f"denominator of {r} vanishes at {dict(point)}")
    return r.num.eval_at(point) / den


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


def reference_at(rows: IntegerRows, point) -> list:
    """`IntegerRows.at` as a loop over monomials, columns and terms."""
    try:
        values = [point[name] for name in rows.names]
    except KeyError:
        raise UnboundParameter(
            f"no value for {sorted(n for n in rows.names if n not in point)}"
        ) from None
    monomial_values = []
    for exps in rows.monomials:
        v = 1
        for value, top, k in zip(values, rows.top, exps):
            v *= value.numerator ** k * value.denominator ** (top - k)
        monomial_values.append(v)
    out = []
    for row in rows.rows:
        entries = []
        for col in row:
            entry = 0
            for m, c in col:
                entry += c * monomial_values[m]
            entries.append(entry)
        out.append(entries)
    return out
