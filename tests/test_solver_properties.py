"""Property tests for the exact point solver and numeric substitution.

The fraction-free integer solver must agree with Gauss-Jordan elimination
(`helpers.reference_solve`) on every input, witness included, a system's
branch row with eager Bareiss elimination over Polys
(`helpers.reference_poly_bareiss`) and `solvable_at` with the solver, the
generated evaluator of compiled rows with `helpers.reference_at`, and the
draws of constrained sample points with the substitution loop
(`helpers.reference_solve_in_turn`).
"""

import random
import sys
from fractions import Fraction
from itertools import permutations
from math import lcm, prod

from hypothesis import Phase, assume, find, given, settings
from hypothesis import strategies as st

import pytest

from bottsol.algebra import Vec3, custom_spec
from bottsol.pipeline import build, eta_signs, stage
from bottsol.registry import load_theorems
from bottsol.scalar import PARAMS, Poly, UnboundParameter
from bottsol import soliton, verify
from bottsol.soliton import (
    _TERMS_PER_SUM, UNKNOWNS, IntegerRows, _solve_integer_rows, decide_at_point, random_points,
    solvable_at, solve_at_point,
)
from helpers import (
    all_configurations, power, reference_at, reference_bareiss, reference_poly_bareiss,
    reference_solve, reference_solve_in_turn, solve_affine,
)

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


def _determinant(a: list) -> int:
    """Leibniz's formula: a signed product per permutation, its sign set by
    the permutation's number of inversions."""
    n = len(a)
    total = 0
    for s in permutations(range(n)):
        inversions = sum(s[i] > s[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(a[i][s[i]] for i in range(n))
    return total


@SETTINGS
@given(st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5), min_size=4, max_size=4))
def test_the_last_pivot_is_the_determinant(rows):
    """Every entry the loop produces is a minor of its input, so on a
    nonsingular 4x4 system the last pivot is the determinant, up to the sign
    of the row swaps, and not a multiple of it: an elimination that skipped
    the divisions by the previous pivot would solve alike but fail here."""
    det = _determinant([row[:4] for row in rows])
    assume(det)
    m = [list(row) for row in rows]
    _solve_integer_rows(m, 4)
    assert abs(m[3][3]) == abs(det)


# Mostly zero integer entries: rows are often 0 in a pivot column, and keep
# an older level when they become the pivot row or are updated.
sparse_ints = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-4, 4))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(sparse_ints, min_size=5, max_size=5), min_size=3, max_size=9))
def test_deferred_scaling_keeps_the_bareiss_pivot_rows(rows):
    """The loop, which leaves a row 0 in the pivot column unscaled, gives
    the verdict of eager Bareiss elimination and the same pivot rows, entry
    for entry; each row below the rank is 0 on the unknowns in both, and
    its constant is 0 in one exactly where it is 0 in the other."""
    m, eager = [list(row) for row in rows], [list(row) for row in rows]
    assert _solve_integer_rows(m, 4) == reference_bareiss(eager, 4)
    rank = sum(any(row[:4]) for row in eager)
    assert m[:rank] == eager[:rank]
    assert [bool(row[4]) for row in m[rank:]] == [bool(row[4]) for row in eager[rank:]]


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
    expected = reference_solve(rational_rows, 4)
    assert solve_affine(system.integer_rows.at(point), 4) == expected
    assert solve_at_point(system, point) == expected


SYSTEMS = [system for cfg in CONFIGURATIONS
           for system in (stage(*cfg).system, stage(*cfg).system.einstein)]


def _read_back(rows: IntegerRows) -> list:
    """Compiled rows as Polys again, each row times its scale."""
    at = [PARAMS.index(name) for name in rows.names]

    def poly(col):
        terms = {}
        for m, c in col:
            e = [0] * len(PARAMS)
            for i, k in zip(at, rows.monomials[m]):
                e[i] = k
            terms[tuple(e)] = c
        return Poly(terms)

    return [[poly(col) for col in row] for row in rows.rows]


def test_the_branch_row_is_eager_bareiss_over_poly():
    """Every catalog system and its Einstein system: the branch row holds the
    last pivot and the distinct nonzero constants of the rows below the rank
    that eager Bareiss elimination over Polys leaves, in row order, every
    row brought up to the last pivot's level."""
    for system in SYSTEMS:
        d, constants = reference_poly_bareiss(system._columns(), len(UNKNOWNS))
        expected = IntegerRows.of([[d] + list(dict.fromkeys(constants))])
        assert _read_back(system.branch_rows) == _read_back(expected)


def _loop_solvable(system, point) -> bool:
    return _solve_integer_rows(system.integer_rows.at(point), len(UNKNOWNS)).solvable


def test_the_branch_decides_random_admissible_points_like_the_loop():
    """Every catalog system and its Einstein system, at seeded admissible
    points on its constraint variety: solvable_at gives the loop's verdict,
    with and without the evaluated rows handed in."""
    for k, system in enumerate(SYSTEMS):
        for point in random_points(system, 12, seed=k):
            expected = _loop_solvable(system, point)
            assert solvable_at(system, point) == expected
            assert solvable_at(system, point, system.integer_rows.at(point)) == expected


def test_the_branch_decides_every_point_of_a_default_pass_like_the_loop(monkeypatch):
    """Every point a default pass of the 45 records decides: solvable_at
    gives the loop's verdict.  The spot points lie on the families' loci,
    where the last pivot often vanishes and the loop decides; a nonzero
    minor decides most witness-search points."""
    decide, taken = verify.solvable_at, []

    def compared(system, point, rows=None):
        expected = _loop_solvable(system, point)
        d, *minors = system.branch_rows.at(point)[0]
        taken.append("minor" if any(minors) else "pivot" if d else "loop")
        assert decide(system, point, rows) == expected
        return expected

    monkeypatch.setattr(verify, "solvable_at", compared)
    for rec in load_theorems():
        verify.verify_theorem(rec)
    assert all(taken.count(branch) > 100 for branch in ("minor", "pivot", "loop"))


def test_every_no_soliton_claim_has_a_minor():
    """Each of the 23 no-soliton claim systems (each G4 sign apart, an
    Einstein clause as its Einstein system) is inconsistent over Q(params):
    its branch row holds at least one minor, which decides the witness
    search wherever it does not vanish."""
    systems = []
    for rec in load_theorems():
        for claim in rec.claims:
            if claim.families is None:
                for eta in eta_signs(claim.group):
                    system = stage(claim.group, rec.distribution, rec.perturbed, eta).system
                    systems.append(system.einstein if claim.einstein else system)
    assert len(systems) == 23
    assert all(len(system.branch_rows.rows[0]) > 1 for system in systems)


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


def _fill(rows: IntegerRows, values) -> list:
    """Integer rows with the zero pattern of `rows`: each column that is not
    a structural zero takes the next of `values`."""
    values = iter(values)
    return [[next(values) if col else 0 for col in row] for row in rows.rows]


PATTERNED = [system.integer_rows for system in SYSTEMS]
ENTRIES = sum(bool(col) for rows in PATTERNED for row in rows.rows for col in row)


SMALL = (0, 1, -1, 2, -2, 3, -3)  # byte b stands for SMALL[b % 7], so 0 shrinks to 0


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=ENTRIES, max_size=ENTRIES),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4), st.booleans())
def test_the_loop_solves_every_zero_pattern_like_gauss_jordan(blob, x, consistent):
    """Every catalog system and its Einstein system: on integers in -3..3
    filled into its zero pattern, 0 included, the loop gives Gauss-Jordan's
    verdict, witness and dimension.  Pivots vanish, rows are 0 in a pivot
    column and are left at an older level, and pivot rows come up from an
    older level, so every branch of the deferred scaling is taken.  With
    `consistent`, each constant that is not a structural zero is set so that
    `x` solves its row, which makes solvable rows common.
    The entries are drawn as one string of bytes, since a draw per entry
    would take seconds."""
    values = (SMALL[b % 7] for b in blob)
    for rows in PATTERNED:
        m = _fill(rows, values)
        if consistent:
            for row, columns in zip(m, rows.rows):
                if columns[-1]:
                    row[-1] = -sum(a * b for a, b in zip(row, x))
        expected = reference_solve(m, len(UNKNOWNS))
        assert _solve_integer_rows(m, len(UNKNOWNS)) == expected


def _uncompiled(rows: IntegerRows, columns=None) -> IntegerRows:
    """A copy of `rows` (with `columns` in place of its rows, if given) that
    has generated no code yet; the rows of a stage keep the code generated
    before any pipeline.stage.cache_clear of an earlier test."""
    return IntegerRows(rows.names, rows.top, rows.monomials, columns or rows.rows)


def test_evaluator_sources_hold_no_coefficient():
    """Rows with every coefficient replaced by a new integer, too large to
    occur in any system, run the code object of the original rows: the
    source, by which code is cached, holds no coefficient."""
    fresh = iter(range(10 ** 30, 10 ** 31))
    point = {n: Fraction(k + 2, 3) for k, n in enumerate(GROUP_PARAMS)}
    for system in SYSTEMS:
        for rows in (system.integer_rows, system.constraint_rows):
            relabeled = _uncompiled(rows, tuple(
                tuple(tuple((m, next(fresh)) for m, _ in col) for col in row) for row in rows.rows))
            assert relabeled._evaluate.__code__ is _uncompiled(rows)._evaluate.__code__
            assert relabeled.at(point) == reference_at(relabeled, point)


exponents = st.tuples(*[st.integers(0, 2)] * len(PARAMS))
polys = st.dictionaries(exponents, small, max_size=8).map(Poly)


@SETTINGS
@given(polys, st.fixed_dictionaries({n: small for n in PARAMS}))
def test_eval_at_matches_termwise_sum(p, point):
    value = p.eval_at(point)
    assert isinstance(value, Fraction)
    assert value == sum(
        (c * prod(point[name] ** k for name, k in zip(PARAMS, e)) for e, c in p.terms.items()),
        Fraction(0),
    )


# --------------------------------------------------------------------------
# Constrained draws: draw_points against the substitution loop
# --------------------------------------------------------------------------

SAMPLED = ("alpha", "beta", "gamma", "delta")
VANISHING, NO_TARGET_TERM = "a coefficient vanishes", "a = b = 0"


@st.composite
def constraint_sets(draw):
    """Up to 3 polynomials over an ordered subset `free` of SAMPLED.  Few
    terms of low degree with small coefficients, so a coefficient in the
    names an earlier constraint bound vanishes at some draws, and so does a
    target's coefficient together with the terms free of it."""
    free = draw(st.permutations(SAMPLED))[:draw(st.integers(1, len(SAMPLED)))]
    exponent = st.fixed_dictionaries({n: st.integers(0, 2) for n in free}).map(
        lambda e: tuple(e.get(name, 0) for name in PARAMS))
    coefficient = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    poly = st.dictionaries(exponent, coefficient.map(Fraction), max_size=4).map(Poly)
    return draw(st.lists(poly, max_size=3)), free


def _draw_both_ways(constraints, free, seed, attempts=20) -> set:
    """Make `attempts` draws with draw_points and with the loop
    (`reference_solve_in_turn`), each from its own generator seeded `seed`:
    every verdict and point, the order of its names included, must agree,
    and so must the next number of each stream.  Returns the rare cases the
    draws met: a shape worked out for a mask in which some coefficient
    vanishes, and a constraint skipped because a = b = 0."""
    draw, shape = soliton._solve_equalities, soliton._step
    met, cleared, ours, theirs = set(), set(), [], []

    def recorded_draw(memos, point, names, rng):
        verdict = draw(memos, point, names, rng)
        ours.append((verdict, point, rng))
        return verdict

    def recorded_shape(exponents, coefficients, open_names, mask):
        if not all(mask):
            met.add(VANISHING)
        return shape(exponents, coefficients, open_names, mask)

    soliton._solve_equalities, soliton._step = recorded_draw, recorded_shape
    try:
        drawn = list(soliton.draw_points(constraints, free, seed, attempts))
    finally:
        soliton._solve_equalities, soliton._step = draw, shape
    looped = random.Random(seed)
    for _ in range(attempts):
        point = {}
        theirs.append((reference_solve_in_turn(constraints, point, free, looped, cleared), point))
    assert ([(verdict, list(point.items())) for verdict, point, _ in ours]
            == [(verdict, list(point.items())) for verdict, point in theirs])
    assert all(type(value) is Fraction for _, point, _ in ours for value in point.values())
    assert drawn == [point for verdict, point, _ in ours if verdict]
    assert ours[-1][2].random() == looped.random()
    return met | ({NO_TARGET_TERM} if cleared else set())


@SETTINGS
@given(constraint_sets(), st.integers(0, 2**32))
def test_planned_draws_match_the_loop(case, seed):
    _draw_both_ways(*case, seed)


@pytest.mark.parametrize("case", [VANISHING, NO_TARGET_TERM])
def test_the_constraint_sets_reach_each_rare_case(case):
    """The strategy above reaches both rare cases of the draws: a mask in
    which a coefficient vanishes, and a = b = 0."""
    find(st.tuples(constraint_sets(), st.integers(0, 2**32)),
         lambda drawn: case in _draw_both_ways(*drawn[0], drawn[1]),
         settings=settings(max_examples=500, deadline=None, database=None, derandomize=True,
                           phases=[Phase.generate]))
