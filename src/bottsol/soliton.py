"""Soliton systems: assembly, family checking, exact point solving, sampling.

The defining equation, evaluated on basis pairs (i <= j), is

    (L_V g)(e_i, e_j) + 2*rho~(e_i, e_j) + 2*mu*g(e_i, e_j) = 0

with V = mu1*e1 + mu2*e2 + mu3*e3.  Every resulting polynomial is affine
linear in the unknowns (mu1, mu2, mu3, mu); the group parameters and a0 act
as symbolic coefficients.  Each equation is divided by its rational content
and sign-normalized, and identical equations are collapsed, which reproduces
the normalization used by the reference tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from .algebra import METRIC_SIGNS, LieAlgebraSpec, Vec3
from .connection import Connection
from .curvature import BilinearForm
from .scalar import PARAMS, DenominatorZero, Poly, RatFun, UnboundParameter, poly_div_exact

UNKNOWNS = ("mu1", "mu2", "mu3", "mu")

_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))


class ConstraintViolated(Exception):
    """A sample point breaks an admissibility constraint.

    A refusal at a constraint keeps the constraint and a copy of the point,
    and formats "<kind> <constraint> fails at <point>" only when printed:
    sampling refuses thousands of points and reads no message."""

    def __init__(self, message: str, constraint: Poly | None = None, point: dict | None = None):
        super().__init__(message)
        self.constraint = constraint
        self.point = point

    def __str__(self) -> str:
        if self.constraint is None:
            return self.args[0]
        return f"{self.args[0]} {self.constraint} fails at {self.point}"


class InconsistentFamily(Exception):
    """Family bindings force one of its own nonzero side conditions to vanish."""


def lie_derivative_form(conn: Connection, v: Vec3) -> BilinearForm:
    """m[i][j] = g(nabla_{e_i} v, e_j) + g(e_i, nabla_{e_j} v); symmetric.

    With nabla_{e_i} v = sum_k v_k gamma[i][k] and g(e_k, e_k) = s_k this is
    m[i][j] = s_j (nabla_{e_i} v)_j + s_i (nabla_{e_j} v)_i, one Poly.dot
    over six products per entry of the upper triangle.
    """
    g = [[vec.c for vec in row] for row in conn.gamma]  # g[i][k][j] = gamma_ik^j
    m = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            sides = {1: [], -1: []}  # the products summed, and those subtracted
            sides[METRIC_SIGNS[j]].extend((v.c[k], g[i][k][j]) for k in range(3))
            sides[METRIC_SIGNS[i]].extend((v.c[k], g[j][k][i]) for k in range(3))
            m[i][j] = m[j][i] = Poly.dot(sides[1], sides[-1])
    return BilinearForm(tuple(map(tuple, m)))


def soliton_vector() -> Vec3:
    return Vec3.of(Poly.var("mu1"), Poly.var("mu2"), Poly.var("mu3"))


@dataclass(frozen=True)
class SolitonSystem:
    equations: tuple  # normalized Polys, in basis-pair order
    group: str
    distribution: str
    equality_constraints: tuple
    nonzero_constraints: tuple  # a0 last when perturbed
    parameters: tuple  # group parameters plus a0 when perturbed

    def __str__(self) -> str:
        lines = [f"{poly} = 0" for poly in self.equations]
        return "\n".join(lines)

    def _columns(self) -> list:
        """The equations as rows of Polys [mu1, mu2, mu3, mu, const]."""
        assert_affine_linear(self)
        return [[eq.coefficient_of(u) for u in UNKNOWNS] + [eq.drop(UNKNOWNS)]
                for eq in self.equations]

    @cached_property
    def integer_rows(self) -> "IntegerRows":
        """The equations' rows, compiled once."""
        return IntegerRows.of(self._columns())

    @cached_property
    def branch_rows(self) -> "IntegerRows":
        """[d, c_1, ..., c_k] of _eliminate over Polys, compiled once: the last
        pivot, and the distinct nonzero constants below the rank at d's level,
        the (r+1)-minors of [A | b] bordering the pivot block (Sylvester)."""
        m = self._columns()
        pivots, levels, d = _eliminate(m, len(UNKNOWNS))
        minors = []
        for row, level in zip(m[len(pivots):], levels[len(pivots):]):
            c, rem = divmod(row[-1] * d, level)
            if rem:
                raise AssertionError("inexact Bareiss division")
            if c and c not in minors:
                minors.append(c)
        return IntegerRows.of([[Poly.const(1) * d] + minors])  # d is the int 1 at rank 0

    @cached_property
    def constraint_rows(self) -> "IntegerRows":
        """One row: the equality constraints, then the nonzero ones, compiled once."""
        return IntegerRows.of([self.equality_constraints + self.nonzero_constraints])

    @cached_property
    def einstein(self) -> "SolitonSystem":
        """The system with mu1 = mu2 = mu3 = 0 added as equations, built once.
        Its constraints are this system's, and so are their compiled rows."""
        eqs = list(self.equations)
        for name in ("mu1", "mu2", "mu3"):
            if Poly.var(name) not in eqs:
                eqs.append(Poly.var(name))
        einstein = replace(self, equations=tuple(eqs))
        vars(einstein)["constraint_rows"] = self.constraint_rows
        return einstein


def equation_values(rows: list, point: Mapping[str, Fraction]) -> list:
    """Each equation's value at `point` times one positive constant: `rows`,
    a system's integer_rows at the parameters' values, weighted by the
    unknowns' values times their common denominator."""
    unknowns = [point[u] for u in UNKNOWNS]
    scale = lcm(*(v.denominator for v in unknowns))
    weights = [v.numerator * (scale // v.denominator) for v in unknowns] + [scale]
    return [sum(map(mul, row, weights)) for row in rows]


def build_system(
    spec: LieAlgebraSpec, rho_sym: BilinearForm, lie: BilinearForm, dist_name: str,
    perturbed: bool,
) -> SolitonSystem:
    """Assemble the system from the symmetrized Ricci form and the Lie-derivative
    form of the (perturbed, when `perturbed`) Bott connection of `dist_name`."""
    mu = Poly.var("mu")
    equations = []
    for (i, j) in _PAIRS:
        g_ij = Poly.const(METRIC_SIGNS[i - 1] if i == j else 0)
        raw = lie.at(i, j) + rho_sym.at(i, j).scaled(2) + (mu * g_ij).scaled(2)
        if raw.is_zero():
            continue
        norm = raw.primitive()
        if norm not in equations:
            equations.append(norm)
    params = spec.parameters
    nonzero = spec.nonzero_constraints
    if perturbed:
        params += ("a0",)
        nonzero += (Poly.var("a0"),)
    return SolitonSystem(
        equations=tuple(equations),
        group=spec.label,
        distribution=dist_name,
        equality_constraints=spec.equality_constraints,
        nonzero_constraints=nonzero,
        parameters=params,
    )


def assert_affine_linear(system: SolitonSystem) -> None:
    for eq in system.equations:
        if eq.degree_in(UNKNOWNS) > 1:
            raise AssertionError(f"equation {eq} is not affine-linear in {UNKNOWNS}")


# --------------------------------------------------------------------------
# Solution families
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SolutionFamily:
    """One stated solution family: bindings plus side conditions.

    bindings maps parameter names to RatFun values (never self-referential);
    side_equal lists polynomials required to vanish that are not solved for a
    single parameter; side_nonzero lists polynomials that must stay nonzero.
    """

    label: str
    bindings: tuple  # ordered (name, RatFun) pairs
    side_equal: tuple = ()
    side_nonzero: tuple = ()

    @cached_property
    def closed_bindings(self) -> dict:
        """Iterate substitution until no bound name appears in any value."""
        values = {name: RatFun.coerce(val) for name, val in self.bindings}
        for _ in range(len(values) + 2):
            changed = False
            for name, val in values.items():
                if val.params() & values.keys():
                    try:
                        values[name] = val.substitute({k: v for k, v in values.items() if k != name})
                    except DenominatorZero as exc:
                        raise InconsistentFamily(
                            f"family {self.label}: closing bindings hit a zero denominator ({exc})"
                        ) from exc
                    changed = True
            if not changed:
                return values
        raise InconsistentFamily(f"family {self.label}: cyclic bindings")

    def reduced(self, polys: Iterable[Poly]) -> list:
        """The numerators of polys under the closed bindings, zeros dropped."""
        binds = self.closed_bindings
        return [r.num for r in (p.substitute(binds) for p in polys) if not r.is_zero()]

    @cached_property
    def _bound_rows(self) -> "IntegerRows":
        """The closed bindings as one row of [numerator, denominator] pairs,
        compiled once."""
        return IntegerRows.of([[value.num, value.den] for value in self.closed_bindings.values()])

    @cached_property
    def _nonzero_rows(self) -> "IntegerRows":
        """One row: the nonzero side conditions, compiled once."""
        return IntegerRows.of([self.side_nonzero])

    def instantiate(self, point: Mapping[str, Fraction]) -> dict | None:
        """`point` extended over the bound names by the closed bindings' values,
        or None where a binding's denominator or a nonzero side condition
        vanishes.  Row scales and the evaluation's positive factor cancel in
        each bound value and keep every side condition's zeros."""
        full = dict(point)
        for name, (num, den) in zip(self.closed_bindings, self._bound_rows.at(point)):
            if not den:
                return None
            full[name] = Fraction(num, den)
        if not all(self._nonzero_rows.at(full)[0]):
            return None
        return full


@dataclass(frozen=True)
class Verdict:
    satisfied: bool
    equation_index: int | None = None
    residual: RatFun | None = None


def _reduces_to_zero(numerator: Poly, side_polys: Sequence[Poly]) -> bool:
    """True when the residual is an exact polynomial multiple of a side condition."""
    if numerator.is_zero():
        return True
    return any(poly_div_exact(numerator, s) is not None for s in side_polys)


def check_family(system: SolitonSystem, family: SolutionFamily) -> Verdict:
    binds = family.closed_bindings
    side_eq = family.reduced(family.side_equal)
    for p in family.side_nonzero:
        if p.substitute(binds).is_zero():
            raise InconsistentFamily(
                f"family {family.label}: bindings force nonzero condition {p} to vanish"
            )
    for idx, eq in enumerate(system.equations):
        residual = eq.substitute(binds)
        if not _reduces_to_zero(residual.num, side_eq):
            return Verdict(False, idx, residual)
    return Verdict(True)


# --------------------------------------------------------------------------
# Exact linear solving at rational parameter points
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PointVerdict:
    solvable: bool
    witness: dict | None = None  # unknown name -> Fraction
    dimension: int | None = None

    def __str__(self) -> str:
        if not self.solvable:
            return "Inconsistent"
        w = ", ".join(f"{k}={v}" for k, v in self.witness.items())
        return f"Solvable({w}; dimension {self.dimension})"


_INCONSISTENT, _ZERO = PointVerdict(False), Fraction(0)  # immutable, so every solve shares them


def check_point_admissible(system: SolitonSystem, point: Mapping[str, Fraction]) -> None:
    missing = [p for p in system.parameters if p not in point]
    if missing:
        raise ConstraintViolated(f"point binds no value for parameters {missing}")
    # Each value is its constraint's value times a positive constant.
    (values,) = system.constraint_rows.at(point)
    equal = system.equality_constraints
    for c, value in zip(equal, values):
        if value:
            raise ConstraintViolated("equality constraint", c, dict(point))
    for c, value in zip(system.nonzero_constraints, values[len(equal):]):
        if not value:
            raise ConstraintViolated("nonzero constraint", c, dict(point))


# Longest sum written as one expression: Python's compiler recurses once per
# operator, and a few thousand terms exhaust its recursion limit.
_TERMS_PER_SUM = 256


def _powers(base: str, k: int) -> list:
    return [] if k == 0 else [base] if k == 1 else [f"{base}**{k}"]


@lru_cache(maxsize=None)
def _code(source: str, filename: str):
    """The code object of a generated evaluator (`IntegerRows._evaluate`),
    compiled once per source text.  Many rows share a source, since no
    coefficient is ever written into one; pipeline.stage.cache_clear empties
    this cache with the stages."""
    return compile(source, filename, "exec")


@dataclass(frozen=True)
class IntegerRows:
    """Rows of polynomials with integer coefficients on parameter monomials.

    A system's rows hold one entry per column, for instance the coefficients
    of mu1, mu2, mu3 and mu and the constant term of each equation.  A row's
    denominators are cleared, so a column is a tuple of (monomial index,
    integer coefficient) pairs over the exponent vectors in `monomials` (one
    exponent per name in `names`).  `top` holds each name's largest exponent
    in any row.
    """

    names: tuple
    top: tuple
    monomials: tuple
    rows: tuple

    @staticmethod
    def of(rows: Sequence[Sequence[Poly]]) -> "IntegerRows":
        """Compile rows of Poly columns; each row is scaled by the lcm of its
        coefficients' denominators, which keeps its solutions and zeros."""
        used = [i for i in range(len(PARAMS))
                if any(e[i] for cols in rows for col in cols for e in col.terms)]
        index: dict = {}  # exponents of the used names -> monomial index
        compiled = []
        for cols in rows:
            scale = lcm(*(c.denominator for col in cols for c in col.terms.values()))
            compiled.append(tuple(
                tuple((index.setdefault(tuple(e[i] for i in used), len(index)),
                       c.numerator * (scale // c.denominator))
                      for e, c in col.terms.items())
                for col in cols
            ))
        monomials = tuple(index)
        return IntegerRows(
            names=tuple(PARAMS[i] for i in used),
            top=tuple(max(m[n] for m in monomials) for n in range(len(used))),
            monomials=monomials,
            rows=tuple(compiled),
        )

    @cached_property
    def _evaluate(self):
        """`at` as straight-line code, generated on first use: one local per
        n_i and d_i, one statement per monomial, one sum per entry.  The
        source holds only the names, which `of` takes from PARAMS, and
        index-derived locals; the integer coefficients are bound through a
        tuple, never written into it."""
        coefficients = []
        body = [f"v = point[{name!r}]; n{i} = v.numerator; d{i} = v.denominator"
                for i, name in enumerate(self.names)]
        for m, exps in enumerate(self.monomials):
            factors = []
            for i, (top, k) in enumerate(zip(self.top, exps)):
                factors += _powers(f"n{i}", k) + _powers(f"d{i}", top - k)
            body.append(f"m{m} = {' * '.join(factors) or '1'}")
        result = []
        for r, row in enumerate(self.rows):
            entries = []
            for c, col in enumerate(row):
                terms = []
                for m, coefficient in col:
                    terms.append(f"k{len(coefficients)} * m{m}")
                    coefficients.append(coefficient)
                sums = [" + ".join(terms[start:start + _TERMS_PER_SUM])
                        for start in range(0, len(terms), _TERMS_PER_SUM)] or ["0"]
                if len(sums) > 1:  # a long entry adds up its sums in a local
                    body.append(f"e{r}_{c} = {sums[0]}")
                    body += [f"e{r}_{c} += {chunk}" for chunk in sums[1:]]
                    sums = [f"e{r}_{c}"]
                entries.append(sums[0])
            result.append(f"[{', '.join(entries)}]")
        body.append(f"return [{', '.join(result)}]")
        lines = ["def bind(k):"]
        if coefficients:
            lines.append("    " + "".join(f"k{j}, " for j in range(len(coefficients))) + "= k")
        lines.append("    def evaluate(point):")
        lines += [f"        {line}" for line in body]
        lines.append("    return evaluate")
        namespace: dict = {}
        exec(_code("\n".join(lines), "<IntegerRows.at>"), namespace)
        return namespace["bind"](tuple(coefficients))

    def at(self, point: Mapping[str, Fraction]) -> list:
        """Integer rows at a rational point: the rows at `point` times prod_i d_i^top_i,
        with a monomial valued prod_i n_i^e_i d_i^(top_i - e_i) for value n_i/d_i."""
        try:
            return self._evaluate(point)
        except KeyError:
            raise UnboundParameter(
                f"no value for {sorted(n for n in self.names if n not in point)}"
            ) from None


def _eliminate(m: list, n_unknowns: int) -> tuple:
    """Fraction-free (Bareiss) elimination of rows [A | b] of ints or Polys
    (both test with bool and divide with divmod) to echelon form, in place:
    returns the pivot columns, each row's level and the last pivot.

    Row scaling is deferred: a row that is 0 in the pivot column is left as
    it is, and each row keeps its level, the pivot it was last multiplied by
    (1 at the start).  Its entries are Bareiss's minors times level /
    previous pivot, so an update divides by the row's own level (none at 1),
    and a new pivot row is first multiplied by previous pivot / level; each
    division is exact and checked.  Pivot rows and pivots are Bareiss's;
    rows below the rank may keep an older level, which no zero test sees.
    """
    pivots = []
    levels = [1] * len(m)
    previous = 1
    r = 0
    for col in range(n_unknowns):
        for k in range(r, len(m)):
            if m[k][col]:
                break
        else:
            continue
        m[r], m[k] = m[k], m[r]
        level, levels[k] = levels[k], levels[r]
        top = m[r]
        if level != previous:
            for j in range(col, n_unknowns + 1):
                top[j], rem = divmod(top[j] * previous, level)
                if rem:
                    raise AssertionError("inexact Bareiss division")
        p = top[col]
        tail = range(col + 1, n_unknowns + 1)
        for i, row in enumerate(m[r + 1:], r + 1):
            f = row[col]
            if not f:
                continue
            row[col] = 0
            level = levels[i]
            if level != 1:
                for j in tail:
                    row[j], rem = divmod(p * row[j] - f * top[j], level)
                    if rem:
                        raise AssertionError("inexact Bareiss division")
            else:
                for j in tail:
                    row[j] = p * row[j] - f * top[j]
            levels[i] = p
        previous = p
        pivots.append(col)
        r += 1
    for row in m[r:]:
        if any(row[:n_unknowns]):
            raise AssertionError("elimination left a stray nonzero row")
    return pivots, levels, previous


def _solve_integer_rows(m: list, n_unknowns: int) -> PointVerdict:
    """The verdict of integer rows [A | b], which _eliminate consumes.  The
    witness sets the free unknowns to 0, as reduced row echelon form does.
    The last pivot is the pivot block's determinant, so by Cramer's rule it
    times each pivot unknown is an integer: back-substitution runs on those."""
    pivots, _, previous = _eliminate(m, n_unknowns)
    if any(row[n_unknowns] for row in m[len(pivots):]):
        return _INCONSISTENT
    scaled = [0] * n_unknowns  # previous times each unknown
    for row_idx in reversed(range(len(pivots))):
        row = m[row_idx]
        rest = row[n_unknowns] * previous
        for j in pivots[row_idx + 1:]:
            rest += row[j] * scaled[j]
        v, rem = divmod(-rest, row[pivots[row_idx]])
        if rem:
            raise AssertionError("inexact Cramer back-substitution")
        scaled[pivots[row_idx]] = v
    witness = [_ZERO] * n_unknowns
    for col in pivots:
        witness[col] = Fraction(scaled[col], previous)
    return PointVerdict(True, dict(zip(UNKNOWNS, witness)), n_unknowns - len(pivots))


def solvable_at(system: SolitonSystem, point: Mapping[str, Fraction],
                rows: list | None = None) -> bool:
    """Whether the system is solvable at `point`, by its branch row [d, c...]
    where it decides.  With r the rank of A over Q(params), rank A(p) <= r:
    a nonzero c_i makes rank [A | b](p) > r (no solution), and all c_i zero
    with d nonzero make every minor bordering d vanish: rank [A | b](p) = r.
    Else the loop consumes `rows`, the caller's integer_rows.at(point), or new ones."""
    d, *minors = system.branch_rows.at(point)[0]
    if any(minors):
        return False
    if d:
        return True
    return _solve_integer_rows(system.integer_rows.at(point) if rows is None else rows,
                               len(UNKNOWNS)).solvable


def solve_at_point(system: SolitonSystem, point: Mapping[str, Fraction]) -> PointVerdict:
    """The verdict at a point check_point_admissible has admitted, which verify
    reads only to describe a witness solvable_at found."""
    return _solve_integer_rows(system.integer_rows.at(point), len(UNKNOWNS))


def decide_at_point(system: SolitonSystem, point: Mapping[str, Fraction]) -> PointVerdict:
    """check_point_admissible, then solve_at_point: ConstraintViolated at a
    refused point, else the verdict (verify needs none: see solvable_at)."""
    check_point_admissible(system, point)
    return solve_at_point(system, point)


# --------------------------------------------------------------------------
# Sample-point generation
#
# Deterministic grid {-2, -1, -1/2, 1/2, 1, 2} per free parameter, filtered
# by the admissibility constraints, topped up with seeded random rationals
# (numerators in [-9, 9], denominators in [1, 9]).  Groups with an equality
# constraint get the constraint solved for one parameter that occurs
# linearly, so random sampling still lands on the constraint variety.
# --------------------------------------------------------------------------

GRID_VALUES = (
    Fraction(-2),
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
)

DEFAULT_SEED = 177147
DEFAULT_SAMPLES = 100  # admissible points per non-existence claim, at least
DEFAULT_SPOT_SAMPLES = 25  # instantiation points per confirmed family

# RANDOM_VALUES[n + 9][d - 1] is Fraction(n, d).  `rng.choice(rng.choice(...))`
# draws the same index pair as `rng.randint(-9, 9), rng.randint(1, 9)`, from
# the same stream, without building a Fraction per draw.
RANDOM_VALUES = tuple(tuple(Fraction(n, d) for d in range(1, 10)) for n in range(-9, 10))


def _admissible(system: SolitonSystem, point: Mapping[str, Fraction]) -> bool:
    try:
        check_point_admissible(system, point)
        return True
    except ConstraintViolated:
        return False


def grid_points(system: SolitonSystem) -> list:
    import itertools

    names = list(system.parameters)
    points = []
    for combo in itertools.product(GRID_VALUES, repeat=len(names)):
        point = dict(zip(names, combo))
        if _admissible(system, point):
            points.append(point)
    return points


def _groups(c: Poly, open_names: tuple) -> tuple:
    """`c`'s terms grouped by monomial in `open_names`: each group's exponents
    of those names, each group's coefficient (a polynomial in the other
    names), the coefficients compiled as one row, and an empty memo of
    `_step`'s shapes."""
    at = [PARAMS.index(n) for n in open_names]
    coefficients: dict = {}  # a monomial in the open names -> its coefficient's terms
    for e, coefficient in c.terms.items():
        rest = tuple(0 if i in at else k for i, k in enumerate(e))
        coefficients.setdefault(tuple(e[i] for i in at), {})[rest] = coefficient
    polys = tuple(map(Poly, coefficients.values()))
    return tuple(coefficients), polys, IntegerRows.of([polys]), {}


def _step(exponents: tuple, coefficients: tuple, open_names: tuple, mask: tuple) -> tuple:
    """How a constraint is solved where the coefficients `mask` marks do not
    vanish: the names to draw, the target, and a (the coefficient of the
    target) and b (the terms free of it) over the groups left, compiled as
    one row [a, b].  The names are those of the groups left, and the target
    is the last of them of degree 1, or None if none is."""
    live = [e for e, keep in zip(exponents, mask) if keep]
    degrees = [max(e[j] for e in live) for j in range(len(open_names))]
    t = next((j for j in reversed(range(len(open_names))) if degrees[j] == 1), None)
    if t is None:
        return (), None, None
    drawn = [j for j, degree in enumerate(degrees) if degree and j != t]
    at = [PARAMS.index(n) for n in open_names]
    a, b = [], []
    for e, coefficient, keep in zip(exponents, coefficients, mask):
        if keep:
            monomial = [0] * len(PARAMS)
            for j in drawn:
                monomial[at[j]] = e[j]
            (a if e[t] else b).append((coefficient, Poly({tuple(monomial): 1})))
    return (tuple(open_names[j] for j in drawn), open_names[t],
            IntegerRows.of([[Poly.dot(a), Poly.dot(b)]]))


def _solve_equalities(memos: list, point: dict, free: list, rng: random.Random) -> bool:
    """One draw: extend the empty `point` over the `free` names so that every
    constraint vanishes, or return False for a retry.

    Constraint by constraint, its open names are those not yet bound.  Where
    the coefficients of its monomials in them all vanish at `point`, it is
    skipped.  Otherwise the last open name of degree 1 among the monomials
    left is the target (with none, the draw fails): the other open names of
    those monomials are drawn, and the target is set to -b/a, with a its
    coefficient and b the terms free of it.  Where a = 0 the constraint is
    skipped if b = 0 too and fails the draw if not.  The names still unbound
    at the end are drawn in `free` order.  `memos` holds each constraint
    with its names in `free` order and its groups per tuple of open names
    (`_groups`), each with its shapes per mask of vanishing coefficients
    (`_step`).  A row's values share one positive scale, so the mask is the
    zero pattern of the coefficients' row and -b/a the ratio of [a, b]'s."""
    for c, names, cases in memos:
        open_names = tuple([n for n in names if n not in point])
        case = cases.get(open_names)
        if case is None:
            case = cases[open_names] = _groups(c, open_names)
        exponents, coefficients, rows, shapes = case
        mask = tuple(map(bool, rows.at(point)[0]))
        if not any(mask):
            continue
        shape = shapes.get(mask)
        if shape is None:
            shape = shapes[mask] = _step(exponents, coefficients, open_names, mask)
        others, target, target_rows = shape
        if target is None:
            return False
        for name in others:
            point[name] = rng.choice(rng.choice(RANDOM_VALUES))
        ((a, b),) = target_rows.at(point)
        if a:
            point[target] = Fraction(-b, a)
        elif b:
            return False
    for name in free:
        point.setdefault(name, rng.choice(rng.choice(RANDOM_VALUES)))
    return True


def draw_points(constraints: Sequence[Poly], free: list, seed: int, attempts: int):
    """Seeded random points over the `free` names: make at most `attempts`
    draws and yield each point on which every equality constraint vanishes.
    Every constraint names only `free` names."""
    memos = []
    for c in constraints:
        names = c.params()
        if not names <= set(free):
            raise AssertionError(f"constraint {c} names {sorted(names - set(free))}, "
                                 f"which are not sampled")
        memos.append((c, tuple(n for n in free if n in names), {}))
    rng = random.Random(seed)
    for _ in range(attempts):
        point: dict = {}
        if _solve_equalities(memos, point, free, rng):
            yield point


def random_points(system: SolitonSystem, count: int, seed: int = DEFAULT_SEED) -> list:
    points = []
    for point in draw_points(system.equality_constraints, list(system.parameters), seed,
                             count * 400):
        if _admissible(system, point):
            points.append(point)
            if len(points) == count:
                break
    if len(points) < count:
        raise ConstraintViolated(
            f"could not sample {count} admissible points for {system.group}/{system.distribution}"
        )
    return points


_plans: dict = {}  # emptied by pipeline.stage.cache_clear with the stages


def sample_plan(system: SolitonSystem, minimum: int = DEFAULT_SAMPLES,
                seed: int = DEFAULT_SEED) -> tuple:
    """Grid plus enough seeded random points to reach the requested minimum,
    drawn once per parameters, constraints, minimum and seed, all a plan
    depends on: one group's systems share one tuple."""
    key = (system.parameters, system.equality_constraints, system.nonzero_constraints, minimum, seed)
    plan = _plans.get(key)
    if plan is None:
        points = grid_points(system)
        need = max(50, minimum - len(points))
        plan = _plans[key] = tuple(points + random_points(system, need, seed=seed))
    return plan
