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
from functools import cached_property
from math import lcm
from typing import Mapping, Sequence

from .algebra import METRIC_SIGNS, LieAlgebraSpec, Vec3, combine
from .connection import Connection
from .curvature import BilinearForm
from .scalar import PARAMS, DenominatorZero, Poly, RatFun, UnboundParameter, poly_div_exact

UNKNOWNS = ("mu1", "mu2", "mu3", "mu")

_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))


class ConstraintViolated(Exception):
    """A sample point breaks an admissibility constraint."""


class InconsistentFamily(Exception):
    """Family bindings force one of its own nonzero side conditions to vanish."""


def lie_derivative_form(conn: Connection, v: Vec3) -> BilinearForm:
    """m[i][j] = g(nabla_{e_i} v, e_j) + g(e_i, nabla_{e_j} v); symmetric.

    With nabla_{e_i} v = sum_k v_k gamma[i][k] and g(e_k, e_k) = s_k this is
    m[i][j] = s_j (nabla_{e_i} v)_j + s_i (nabla_{e_j} v)_i.
    """
    s = METRIC_SIGNS
    nabla_v = [combine(v.c, row).c for row in conn.gamma]
    return BilinearForm(tuple(
        tuple(nabla_v[i][j].scaled(s[j]) + nabla_v[j][i].scaled(s[i]) for j in range(3))
        for i in range(3)
    ))


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

    @cached_property
    def integer_rows(self) -> "IntegerRows":
        """The equations as rows [mu1, mu2, mu3, mu, const], compiled once."""
        assert_affine_linear(self)
        return IntegerRows.of([[eq.coefficient_of(u) for u in UNKNOWNS] + [eq.drop(UNKNOWNS)]
                               for eq in self.equations])

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
    binds = family.closed_bindings()
    side_eq = []
    for p in family.side_equal:
        r = p.substitute(binds)
        if not r.is_zero():
            side_eq.append(r.num)
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


def check_point_admissible(system: SolitonSystem, point: Mapping[str, Fraction]) -> None:
    missing = [p for p in system.parameters if p not in point]
    if missing:
        raise ConstraintViolated(f"point binds no value for parameters {missing}")
    # Each value is its constraint's value times a positive constant.
    (values,) = system.constraint_rows.at(point)
    equal = system.equality_constraints
    for c, value in zip(equal, values):
        if value:
            raise ConstraintViolated(f"equality constraint {c} fails at {dict(point)}")
    for c, value in zip(system.nonzero_constraints, values[len(equal):]):
        if not value:
            raise ConstraintViolated(f"nonzero constraint {c} fails at {dict(point)}")


# Longest sum written as one expression: Python's compiler recurses once per
# operator, and a few thousand terms exhaust its recursion limit.
_TERMS_PER_SUM = 256


def _powers(base: str, k: int) -> list:
    return [] if k == 0 else [base] if k == 1 else [f"{base}**{k}"]


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
        exec(compile("\n".join(lines), "<IntegerRows.at>", "exec"), namespace)
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


def _solve_integer_rows(m: list, n_unknowns: int) -> PointVerdict:
    """Fraction-free (Bareiss) elimination of integer rows to echelon form, in place.

    Every entry it produces is a minor of the input, so each division by the
    previous pivot is exact.  The witness sets the free unknowns to 0, which
    gives the same witness as reduced row echelon form.  The last pivot is
    the determinant of the pivot rows and columns, so by Cramer's rule it
    times each pivot unknown is an integer: back-substitution runs on those
    integers, and each pivot unknown takes one Fraction at the end.
    """
    pivots = []
    previous = 1
    r = 0
    for col in range(n_unknowns):
        pivot = next((k for k in range(r, len(m)) if m[k][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[col]
        tail = range(col + 1, n_unknowns + 1)
        for row in m[r + 1:]:
            f = row[col]
            row[col] = 0
            for j in tail:
                q, rem = divmod(p * row[j] - f * top[j], previous)
                if rem:
                    raise AssertionError("inexact Bareiss division")
                row[j] = q
        previous = p
        pivots.append(col)
        r += 1
    for row in m[r:]:
        if any(row[:n_unknowns]):
            raise AssertionError("elimination left a stray nonzero row")
        if row[n_unknowns]:
            return PointVerdict(False)
    scaled = [0] * n_unknowns  # previous times each unknown
    for row_idx in reversed(range(r)):
        row = m[row_idx]
        rest = row[n_unknowns] * previous
        for j in pivots[row_idx + 1:]:
            rest += row[j] * scaled[j]
        v, rem = divmod(-rest, row[pivots[row_idx]])
        if rem:
            raise AssertionError("inexact Cramer back-substitution")
        scaled[pivots[row_idx]] = v
    witness = [Fraction(0)] * n_unknowns
    for col in pivots:
        witness[col] = Fraction(scaled[col], previous)
    return PointVerdict(True, dict(zip(UNKNOWNS, witness)), n_unknowns - len(pivots))


def solve_at_point(system: SolitonSystem, point: Mapping[str, Fraction]) -> PointVerdict:
    """The verdict at a point that check_point_admissible has admitted."""
    return _solve_integer_rows(system.integer_rows.at(point), len(UNKNOWNS))


def decide_at_point(system: SolitonSystem, point: Mapping[str, Fraction]) -> PointVerdict:
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


def _solve_equalities(
    constraints: Sequence[Poly],
    point: dict,
    free: list,
    rng: random.Random,
) -> bool:
    """Extend `point` over `free` names so all equality constraints vanish.

    Strategy per constraint: substitute what is known; if the rest is linear
    in some still-free name, sample the other free names then solve for it.
    Mutates `point`; returns False when the attempt should be retried.
    """
    def rand() -> Fraction:
        return rng.choice(rng.choice(RANDOM_VALUES))

    for c in constraints:
        residual = c.partial_eval(point)
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
        shifted = residual.partial_eval({name: point[name] for name in open_names if name != target})
        # Every name left in `shifted` is the target, so both are constants.
        a = shifted.coefficient_of(target).constant_value()
        b = shifted.drop([target]).constant_value()
        if a == 0:
            if b != 0:
                return False
            continue
        point[target] = -b / a
    for name in free:
        point.setdefault(name, rand())
    return True


def draw_points(constraints: Sequence[Poly], free: list, seed: int, attempts: int):
    """Seeded random points over the `free` names: make at most `attempts`
    draws and yield each point on which every equality constraint vanishes."""
    rng = random.Random(seed)
    for _ in range(attempts):
        point: dict = {}
        if _solve_equalities(constraints, point, free, rng):
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


def sample_plan(system: SolitonSystem, minimum: int = 100, seed: int = DEFAULT_SEED) -> list:
    """Grid plus enough seeded random points to reach the requested minimum."""
    points = grid_points(system)
    need = max(50, minimum - len(points))
    points.extend(random_points(system, need, seed=seed))
    return points
