"""Helpers the tests share and the program does not need.

`reference_solve` is Gauss-Jordan elimination to reduced row echelon form
over Fractions; `solve_affine` feeds rational rows to the program's
fraction-free integer solver, so the two can be compared on any input.
`reference_bareiss` is eager fraction-free elimination over ints, and
`reference_poly_bareiss` the same over Polys, against which the deferred
scaling of the program's one loop and a system's branch row are compared.
`reference_at` evaluates compiled integer rows by a plain loop, against
which the program's generated evaluator is compared, and `ratfun_eval_at`
evaluates a quotient at a point, against which the compiled family bindings
are compared.  `combine` sums scaled vectors through Vec3 arithmetic, one
intermediate Poly per product; the `reference_*` forms built on it are the
bracket and Lie-derivative formulas the program's `Poly.dot` sums replace.
`reference_tokens` splits an expression by a character loop, against which
the parser's one-pattern scanner is compared.  `reference_diff_system`
compares two equation lists by their printed primitive forms, against which
the value-based system diff is compared.  `reference_solve_in_turn` draws a
constrained sample point by substituting into each constraint in turn,
against which the program's memoized draws are compared.
"""

from fractions import Fraction
from math import lcm

from bottsol.algebra import GROUPS, METRIC_SIGNS, Vec3, bilinear
from bottsol.connection import DISTRIBUTIONS
from bottsol.curvature import BilinearForm
from bottsol.pipeline import eta_signs
from bottsol.scalar import (
    DenominatorZero, ParseError, Poly, RatFun, UnboundParameter, poly_div_exact,
)
from bottsol.soliton import (
    RANDOM_VALUES, UNKNOWNS, IntegerRows, PointVerdict, _solve_integer_rows,
)
from bottsol.verify import EntryDiff


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


def combine(coeffs, vecs) -> Vec3:
    """sum_k coeffs[k] * vecs[k]; zero coefficients are skipped before multiplying."""
    out = Vec3.zero()
    for coeff, vec in zip(coeffs, vecs):
        if not coeff.is_zero():
            out = out + vec.scale(coeff)
    return out


def reference_bracket(spec, x: Vec3, y: Vec3) -> Vec3:
    """[x, y] = sum_i x_i sum_j y_j [e_i, e_j], through `combine`."""
    out = Vec3.zero()
    for xi, row in zip(x.c, spec.c):
        if not xi.is_zero():
            out = out + combine(y.c, row).scale(xi)
    return out


def reference_jacobi_defect(spec) -> Vec3:
    """The cyclic sum of `algebra.jacobi_defect` through `reference_bracket`."""
    e1, e2, e3 = Vec3.basis(1), Vec3.basis(2), Vec3.basis(3)
    return (
        reference_bracket(spec, reference_bracket(spec, e1, e2), e3)
        + reference_bracket(spec, reference_bracket(spec, e2, e3), e1)
        + reference_bracket(spec, reference_bracket(spec, e3, e1), e2)
    )


def reference_lie_derivative_form(conn, v: Vec3) -> BilinearForm:
    """m[i][j] = s_j (nabla_{e_i} v)_j + s_i (nabla_{e_j} v)_i, with each
    nabla_{e_i} v a `combine` and all nine entries computed."""
    s = METRIC_SIGNS
    nabla_v = [combine(v.c, row).c for row in conn.gamma]
    return BilinearForm(tuple(
        tuple(nabla_v[i][j].scaled(s[j]) + nabla_v[j][i].scaled(s[i]) for j in range(3))
        for i in range(3)
    ))


# G1 at alpha -> 2/3*alpha + 1/2, beta -> -5/4*beta: a Lie algebra outside
# the catalog whose brackets have rational coefficients.
RATIONAL_SPEC = """
[e1,e2] = (2/3*alpha + 1/2)*e1 + 5/4*beta*e3
[e1,e3] = -(2/3*alpha + 1/2)*e1 + 5/4*beta*e2
[e2,e3] = -5/4*beta*e1 + (2/3*alpha + 1/2)*e2 + (2/3*alpha + 1/2)*e3
"""


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


def reference_bareiss(m: list, n_unknowns: int) -> PointVerdict:
    """Eager fraction-free (Bareiss) elimination of integer rows, in place:
    at each pivot every row below it is updated and divided by the previous
    pivot, whether it is 0 in the pivot column or not, so every row holds
    minors of the input at the pivot's level.  The verdict is Gauss-Jordan's
    on the eliminated rows."""
    previous = 1
    r = 0
    for col in range(n_unknowns):
        pivot = next((k for k in range(r, len(m)) if m[k][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p = m[r][col]
        for row in m[r + 1:]:
            f = row[col]
            for j, (a, b) in enumerate(zip(row, m[r])):
                row[j], rem = divmod(p * a - f * b, previous)
                assert not rem, "inexact Bareiss division"
        previous = p
        r += 1
    return reference_solve(m, n_unknowns)


def reference_poly_bareiss(m: list, n_unknowns: int) -> tuple:
    """`reference_bareiss` over rows of Polys, in place, each division by
    poly_div_exact: the last pivot (Poly 1 at rank 0) and the nonzero
    constants of the rows below the rank, in row order, every row at the
    last pivot's level.  Those rows must be 0 on the unknowns."""
    previous = Poly.const(1)
    r = 0
    for col in range(n_unknowns):
        pivot = next((k for k in range(r, len(m)) if not m[k][col].is_zero()), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p = m[r][col]
        for row in m[r + 1:]:
            f = row[col]
            for j, (a, b) in enumerate(zip(row, m[r])):
                row[j] = poly_div_exact(p * a - f * b, previous)
                assert row[j] is not None, "inexact Bareiss division"
        previous = p
        r += 1
    assert all(x.is_zero() for row in m[r:] for x in row[:n_unknowns])
    return previous, [row[n_unknowns] for row in m[r:] if not row[n_unknowns].is_zero()]


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


def reference_tokens(text: str) -> list:
    """The tokens of an expression, one character at a time: operators, runs
    of ASCII digits, and names (a letter or '_', then letters, digits and
    '_'); white space is skipped and any other character is refused."""
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            toks.append(ch)
            i += 1
        elif "0" <= ch <= "9":  # str.isdigit() also admits '²', which int() refuses
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            toks.append(text[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(text[i:j])
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} in {text!r}")
    return toks


def reference_diff_system(expected: list, computed: tuple) -> list:
    """The equations on one side only, found by printing every nonzero
    equation of both sides in primitive form and comparing the strings."""
    expected = sorted(str(p.primitive()) for p in expected if not p.is_zero())
    computed = sorted(str(p.primitive()) for p in computed if not p.is_zero())
    diffs = []
    for extra in sorted(set(expected) - set(computed)):
        diffs.append(EntryDiff("equations", extra, "(no matching equation)"))
    for extra in sorted(set(computed) - set(expected)):
        diffs.append(EntryDiff("equations", "(no matching equation)", extra))
    return diffs


def reference_solve_in_turn(constraints, point: dict, free: list, rng, cleared=None) -> bool:
    """Extend `point` over `free` names so all equality constraints vanish.

    Strategy per constraint: substitute what is known; if the rest is linear
    in some still-free name, sample the other free names then solve for it.
    Mutates `point`; returns False when the attempt should be retried.  A
    constraint that vanishes whatever its target once the other names are
    drawn (a = b = 0) is skipped, and added to the set `cleared` if given.
    """
    def rand() -> Fraction:
        return rng.choice(rng.choice(RANDOM_VALUES))

    for c in constraints:
        residual = c.substitute(point).num
        if residual.is_zero():
            continue
        open_names = [n for n in free if n in residual.params() and n not in point]
        if not open_names:
            return False
        target = None
        for name in reversed(open_names):
            if residual.degree_in([name]) == 1:
                target = name
                break
        if target is None:
            return False
        for name in open_names:
            if name != target:
                point[name] = rand()
        drawn = {name: point[name] for name in open_names if name != target}
        shifted = residual.substitute(drawn).num
        # Every name left in `shifted` is the target, so both are constants.
        a = shifted.coefficient_of(target).constant_value()
        b = shifted.drop([target]).constant_value()
        if a == 0:
            if b != 0:
                return False
            if cleared is not None:
                cleared.add(c)
            continue
        point[target] = -Fraction(b) / a
    for name in free:
        point.setdefault(name, rand())
    return True
