"""Property tests for the exact point solver and numeric substitution.

The fraction-free integer solver must agree with Gauss-Jordan elimination
(`helpers.reference_solve`) on every input, witness included, and the
generated evaluator of compiled rows with `helpers.reference_at`.
"""

import sys
from fractions import Fraction
from math import lcm, prod

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from bottsol.algebra import Vec3, custom_spec
from bottsol.pipeline import build, stage
from bottsol.scalar import PARAMS, Poly, RatFun, UnboundParameter
from bottsol.soliton import _TERMS_PER_SUM, UNKNOWNS, IntegerRows, decide_at_point
from helpers import all_configurations, power, reference_at, reference_solve, solve_affine

SETTINGS = settings(max_examples=100, deadline=None)


small = st.fractions(min_value=-9, max_value=9, max_denominator=9)
# Mostly zero entries, so that pivots are missing and ranks drop.
sparse = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), small)


@st.composite
def affine_systems(draw):
    """Rows with duplicated, scaled, combined, all-zero and inconsistent rows."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(sparse, min_size=n + 1, max_size=n + 1), min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("duplicate", "scaled", "combined", "zero", "inconsistent")))
        a = rows[draw(st.integers(0, len(rows) - 1))]
        b = rows[draw(st.integers(0, len(rows) - 1))]
        s = draw(small.filter(bool))
        if kind == "duplicate":
            rows.append(list(a))
        elif kind == "scaled":
            rows.append([s * x for x in a])
        elif kind == "combined":
            rows.append([x + s * y for x, y in zip(a, b)])
        elif kind == "zero":
            rows.append([Fraction(0)] * (n + 1))
        else:
            rows.append(a[:n] + [a[n] + s])
    order = draw(st.permutations(range(len(rows))))
    return [rows[k] for k in order], n


@settings(max_examples=250, deadline=None)
@given(affine_systems())
def test_solver_matches_gauss_jordan(system):
    rows, n = system
    expected = reference_solve(rows, n)
    assert solve_affine(rows, n) == expected
    # Integer rows (each row times its denominators' lcm) have the same solutions.
    as_ints = [[int(x * lcm(*(y.denominator for y in row))) for x in row] for row in rows]
    assert solve_affine(as_ints, n) == expected


CONFIGURATIONS = list(all_configurations())
GROUP_PARAMS = ("alpha", "beta", "gamma", "delta", "a0")


@SETTINGS
@given(st.sampled_from(CONFIGURATIONS), st.fixed_dictionaries({n: small for n in GROUP_PARAMS}))
def test_integer_rows_solve_like_rational_rows(cfg, values):
    """At any rational point, admissible or not, the compiled integer rows
    give the verdict that Gauss-Jordan gives on the rational rows."""
    system = stage(*cfg).system
    point = {name: values[name] for name in system.parameters}
    rational_rows = [
        [eq.coefficient_of(u).eval_at(point) for u in UNKNOWNS] + [eq.drop(UNKNOWNS).eval_at(point)]
        for eq in system.equations
    ]
    assert solve_affine(system.integer_rows.at(point), 4) == reference_solve(rational_rows, 4)


SYSTEMS = [system for cfg in CONFIGURATIONS
           for system in (stage(*cfg).system, stage(*cfg).system.einstein)]


@SETTINGS
@given(st.fixed_dictionaries({n: small for n in GROUP_PARAMS}))
def test_compiled_rows_evaluate_like_the_reference_loop(point):
    """Every catalog system and its Einstein system: the generated evaluator
    of the equation and constraint rows gives the reference loop's integers."""
    for system in SYSTEMS:
        for rows in (system.integer_rows, system.constraint_rows):
            assert rows.at(point) == reference_at(rows, point)


def test_compiled_rows_name_the_missing_parameters():
    rows = stage("G5", "D", True).system.integer_rows
    point = {"alpha": Fraction(1), "gamma": Fraction(2)}
    with pytest.raises(UnboundParameter, match=r"^no value for \['a0', 'beta', 'delta'\]$"):
        rows.at(point)
    with pytest.raises(UnboundParameter, match=r"^no value for \['a0', 'beta', 'delta'\]$"):
        reference_at(rows, point)


def test_coefficients_past_the_printing_limit_evaluate():
    """Coefficients reach the evaluator as integers, never as source text, so
    a system whose integers have more digits than str() prints still runs."""
    big = Poly.const(10 ** (sys.get_int_max_str_digits() + 10))
    alpha, beta = Poly.var("alpha"), Poly.var("beta")
    spec = custom_spec({
        (1, 2): Vec3.of(big * alpha, Poly.zero(), beta),
        (1, 3): Vec3.of(Poly.zero(), Poly.zero(), Poly.zero()),
        (2, 3): Vec3.of(Poly.zero(), Poly.zero(), alpha),
    })
    system = build(spec, "D").system
    rows = system.integer_rows
    largest = max(abs(c) for row in rows.rows for col in row for _, c in col)
    assert largest > 10 ** sys.get_int_max_str_digits()
    for values in ((Fraction(1), Fraction(-2, 3)), (Fraction(0), Fraction(5, 9))):
        point = dict(zip(system.parameters, values))
        assert rows.at(point) == reference_at(rows, point)
        rational_rows = [
            [eq.coefficient_of(u).eval_at(point) for u in UNKNOWNS]
            + [eq.drop(UNKNOWNS).eval_at(point)]
            for eq in system.equations
        ]
        assert decide_at_point(system, point) == reference_solve(rational_rows, 4)


def test_long_entries_evaluate_like_the_reference_loop():
    """An entry with more terms than one generated sum holds is added up in
    pieces, since Python's compiler recurses once per operator."""
    p = power(Poly.var("alpha") + Poly.var("beta") + Poly.var("gamma") + Poly.var("delta") + 1, 7)
    assert len(p.terms) > _TERMS_PER_SUM
    rows = IntegerRows.of([[p, p.scaled(Fraction(1, 3))], [Poly.zero(), Poly.var("beta")]])
    point = {"alpha": Fraction(-2, 3), "beta": Fraction(1, 9), "gamma": Fraction(0),
             "delta": Fraction(5)}
    assert rows.at(point) == reference_at(rows, point)


exponents = st.tuples(*[st.integers(0, 2)] * len(PARAMS))
polys = st.dictionaries(exponents, small, max_size=8).map(Poly)
points = st.dictionaries(st.sampled_from(PARAMS), small, max_size=len(PARAMS))


@SETTINGS
@given(polys, points)
def test_partial_eval_matches_symbolic_substitution(p, point):
    assert p.partial_eval(point) == RatFun.coerce(p).substitute(point).num


@SETTINGS
@given(polys, st.fixed_dictionaries({n: small for n in PARAMS}))
def test_eval_at_matches_termwise_sum(p, point):
    value = p.eval_at(point)
    assert isinstance(value, Fraction)
    assert value == sum(
        (c * prod(point[name] ** k for name, k in zip(PARAMS, e)) for e, c in p.terms.items()),
        Fraction(0),
    )
