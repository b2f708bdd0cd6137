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
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .algebra import METRIC_SIGNS, LieAlgebraSpec, Vec3, combine
from .connection import PERTURBED_BOTT, Connection
from .curvature import BilinearForm
from .scalar import DenominatorZero, Poly, RatFun, poly_div_exact

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
    perturbed: bool
    eta_sign: int | None
    equality_constraints: tuple
    nonzero_constraints: tuple
    parameters: tuple  # group parameters plus a0 when perturbed

    def __str__(self) -> str:
        lines = [f"{poly} = 0" for poly in self.equations]
        return "\n".join(lines)


def build_system(
    spec: LieAlgebraSpec, conn: Connection, rho_sym: BilinearForm, lie: BilinearForm
) -> SolitonSystem:
    """Assemble the system from the symmetrized Ricci form and the Lie-derivative
    form that were built on `conn`."""
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
    perturbed = conn.kind == PERTURBED_BOTT
    params = list(spec.parameters)
    if perturbed:
        params.append("a0")
    return SolitonSystem(
        equations=tuple(equations),
        group=spec.label,
        distribution=conn.distribution.name if conn.distribution else "",
        perturbed=perturbed,
        eta_sign=spec.eta_sign,
        equality_constraints=spec.equality_constraints,
        nonzero_constraints=spec.nonzero_constraints,
        parameters=tuple(params),
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

    def __str__(self) -> str:
        if self.satisfied:
            return "Satisfied"
        return f"Violated(equation {self.equation_index}, residual {self.residual})"


def _reduces_to_zero(numerator: Poly, side_polys: Sequence[Poly]) -> bool:
    """True when the residual is an exact polynomial multiple of a side condition."""
    if numerator.is_zero():
        return True
    for s in side_polys:
        if s.is_zero():
            continue
        if poly_div_exact(numerator, s) is not None:
            return True
    return False


def check_family(system: SolitonSystem, family: SolutionFamily) -> Verdict:
    binds = family.closed_bindings()
    side_eq = []
    for p in family.side_equal:
        r = RatFun.from_poly(p).substitute(binds)
        if not r.is_zero():
            side_eq.append(r.num)
    for p in family.side_nonzero:
        if RatFun.from_poly(p).substitute(binds).is_zero():
            raise InconsistentFamily(
                f"family {family.label}: bindings force nonzero condition {p} to vanish"
            )
    for idx, eq in enumerate(system.equations):
        residual = RatFun.from_poly(eq).substitute(binds)
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
    for c in system.equality_constraints:
        if c.eval_at(point) != 0:
            raise ConstraintViolated(f"equality constraint {c} fails at {dict(point)}")
    for c in system.nonzero_constraints:
        if c.eval_at(point) == 0:
            raise ConstraintViolated(f"nonzero constraint {c} fails at {dict(point)}")
    if system.perturbed and Fraction(point["a0"]) == 0:
        raise ConstraintViolated("a0 must be nonzero for perturbed connections")


def linear_rows(system: SolitonSystem, point: Mapping[str, Fraction]) -> list:
    """Rows [c_mu1, c_mu2, c_mu3, c_mu, const] of the system at the point."""
    rows = []
    for eq in system.equations:
        row = []
        for u in UNKNOWNS:
            row.append(eq.coefficient_of(u).eval_at(point))
        const_poly = eq.drop(UNKNOWNS)
        row.append(const_poly.eval_at(point))
        rows.append(row)
    return rows


def solve_affine(rows: list, n_unknowns: int) -> PointVerdict:
    """Exact Gaussian elimination on [A | b] rows meaning A*x + b = 0."""
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
        if any(x != 0 for x in row[:n_unknowns]):
            raise AssertionError("elimination left a stray nonzero row")
        if row[n_unknowns] != 0:
            return PointVerdict(False)
    witness = [Fraction(0)] * n_unknowns
    for row_idx, col in enumerate(pivots):
        witness[col] = -m[row_idx][n_unknowns]
    return PointVerdict(True, dict(zip(UNKNOWNS, witness)), n_unknowns - len(pivots))


def decide_at_point(system: SolitonSystem, point: Mapping[str, Fraction]) -> PointVerdict:
    check_point_admissible(system, point)
    return solve_affine(linear_rows(system, point), len(UNKNOWNS))


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
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    for c in constraints:
        r = RatFun.from_poly(c).substitute(point)
        residual = r.num
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
        shifted = RatFun.from_poly(residual).substitute(
            {k: v for k, v in point.items() if k != target}
        ).num
        a = shifted.coefficient_of(target)
        b = shifted.drop([target])
        a_val = a.eval_at(point)
        if a_val == 0:
            if b.eval_at(point) != 0:
                return False
            continue
        point[target] = -b.eval_at(point) / a_val
    for name in free:
        point.setdefault(name, rand())
    return True


def random_points(system: SolitonSystem, count: int, seed: int = DEFAULT_SEED) -> list:
    rng = random.Random(seed)
    names = list(system.parameters)
    points = []
    attempts = 0
    while len(points) < count and attempts < count * 400:
        attempts += 1
        point: dict = {}
        if not _solve_equalities(system.equality_constraints, point, names, rng):
            continue
        if _admissible(system, point):
            points.append(point)
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
