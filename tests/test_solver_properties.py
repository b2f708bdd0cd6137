"""Property tests for the exact point solver and numeric substitution.

The fraction-free integer solver must agree with Gauss-Jordan elimination
(`helpers.reference_solve`) on every input, witness included.
"""

from fractions import Fraction
from math import lcm, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from bottsol.pipeline import all_configurations, stage
from bottsol.scalar import PARAMS, Poly, RatFun
from bottsol.soliton import UNKNOWNS
from helpers import reference_solve, solve_affine

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
