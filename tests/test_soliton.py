import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottsol import pipeline, soliton
from bottsol.algebra import Vec3, custom_spec, parse_custom_file
from bottsol.pipeline import build, stage
from bottsol.scalar import Poly, parse_poly, parse_ratfun
from bottsol.soliton import (
    RANDOM_VALUES,
    ConstraintViolated,
    InconsistentFamily,
    SolutionFamily,
    assert_affine_linear,
    check_family,
    decide_at_point,
    draw_points,
    grid_points,
    lie_derivative_form,
    random_points,
    sample_plan,
    soliton_vector,
)
from helpers import (
    RATIONAL_SPEC,
    all_configurations,
    is_symmetric,
    reference_lie_derivative_form,
    solve_affine,
)

F = Fraction


def canon(p):
    return str(p.primitive())


def system_strings(system):
    return sorted(canon(eq) for eq in system.equations)


class TestLieDerivativeForm:
    def test_g1_entry(self):
        lie = stage("G1", "D").lie_derivative
        assert lie.at(1, 1) == parse_poly("2*mu2*alpha")

    def test_zero_vector(self):
        conn = stage("G1", "D").conn
        form = lie_derivative_form(conn, Vec3.zero())
        assert all(v.is_zero() for _, v in form.entries())

    def test_perturbed_timelike_entry(self):
        lie = stage("G1", "D", perturbed=True).lie_derivative
        assert lie.at(3, 3) == parse_poly("-2*a0*mu3")

    def test_always_symmetric(self):
        for group, dist, perturbed, eta in all_configurations():
            assert is_symmetric(stage(group, dist, perturbed, eta).lie_derivative)

    def test_equals_the_combine_formula(self):
        """Each entry is one Poly.dot; it equals the Vec3 `combine` formula
        it replaces, on the catalog and on a spec with rational brackets."""
        stages = [stage(*config) for config in all_configurations()]
        spec = parse_custom_file(RATIONAL_SPEC)
        stages += [build(spec, dist, perturbed) for dist in ("D", "D1", "D2")
                   for perturbed in (False, True)]
        def terms(form):
            return [[p.terms for p in row] for row in form.m]

        for st in stages:
            for v in (soliton_vector(), Vec3.of(Fraction(1, 2), Poly.var("mu2"), -3)):
                got = lie_derivative_form(st.conn, v)
                assert terms(got) == terms(reference_lie_derivative_form(st.conn, v))


class TestBuildSystem:
    def test_g1_system_matches_displayed_equations(self):
        system = stage("G1", "D").system
        expected = [
            "mu2*alpha - alpha^2 - beta^2 + mu",
            "2*alpha*beta - mu1*alpha",
            "mu1*alpha - mu2*beta - alpha*beta",
            "alpha^2 + beta^2 - mu",
            "(mu2+mu3)*alpha - mu1*beta - alpha^2",
            "mu",
        ]
        assert system_strings(system) == sorted(canon(parse_poly(t)) for t in expected)

    def test_g5_system_is_three_equations(self):
        system = stage("G5", "D").system
        expected = ["mu", "mu1*alpha + mu2*gamma", "mu1*beta + mu2*delta"]
        assert system_strings(system) == sorted(canon(parse_poly(t)) for t in expected)

    def test_abelian_system_collapses_to_mu(self):
        spec = custom_spec({(1, 2): Vec3.zero(), (1, 3): Vec3.zero(), (2, 3): Vec3.zero()})
        system = build(spec, "D").system
        assert [canon(eq) for eq in system.equations] == ["mu"]

    def test_affine_linearity_all_42_systems(self):
        count = 0
        seen = set()
        for group, dist, perturbed, eta in all_configurations():
            system = stage(group, dist, perturbed, eta).system
            assert_affine_linear(system)
            if (group, dist, perturbed) not in seen:
                seen.add((group, dist, perturbed))
                count += 1
        assert count == 42

    def test_catalog_systems_are_built_primitive_and_distinct(self):
        """verify compares computed equations as built, so each must already
        be nonzero, primitive and listed once."""
        for config in all_configurations():
            equations = stage(*config).system.equations
            assert len(set(equations)) == len(equations), config
            for eq in equations:
                assert not eq.is_zero() and eq == eq.primitive(), (config, str(eq))


class TestCheckFamily:
    def test_satisfied_family_for_g3(self):
        system = stage("G3", "D").system
        fam = SolutionFamily(
            "2", (("mu", parse_ratfun("0")), ("alpha", parse_ratfun("0")), ("beta", parse_ratfun("0"))),
            side_nonzero=(parse_poly("gamma"),),
        )
        assert check_family(system, fam).satisfied

    def test_satisfied_family_for_g5(self):
        system = stage("G5", "D").system
        fam = SolutionFamily(
            "1", (("mu", parse_ratfun("0")), ("mu1", parse_ratfun("0")), ("mu2", parse_ratfun("0"))),
        )
        assert check_family(system, fam).satisfied

    def test_violated_zero_vector_family_for_g1(self):
        system = stage("G1", "D").system
        fam = SolutionFamily(
            "einstein", tuple((name, parse_ratfun("0")) for name in ("mu", "mu1", "mu2", "mu3")),
        )
        verdict = check_family(system, fam)
        assert not verdict.satisfied
        residual = verdict.residual.num.primitive()
        assert residual == parse_poly("alpha^2 + beta^2")

    def test_side_equal_reduction(self):
        system = stage("G3", "D").system
        fam = SolutionFamily(
            "1", (("mu", parse_ratfun("0")), ("gamma", parse_ratfun("0"))),
            side_equal=(parse_poly("alpha*mu2"), parse_poly("mu1*beta")),
        )
        assert check_family(system, fam).satisfied

    def test_inconsistent_family(self):
        system = stage("G3", "D").system
        fam = SolutionFamily(
            "x", (("gamma", parse_ratfun("0")),), side_nonzero=(parse_poly("gamma"),)
        )
        with pytest.raises(InconsistentFamily):
            check_family(system, fam)

    def test_chained_bindings_close(self):
        # mu3 refers to gamma, which is itself bound to a rational function.
        system = stage("G7", "D").system
        fam = SolutionFamily(
            "3",
            (
                ("mu", parse_ratfun("0")),
                ("alpha", parse_ratfun("0")),
                ("mu1", parse_ratfun("gamma + beta")),
                ("mu2", parse_ratfun("delta")),
                ("mu3", parse_ratfun("delta*(2*beta - gamma)/beta")),
                ("gamma", parse_ratfun("beta*(beta^2 + delta^2)/delta^2")),
            ),
            side_nonzero=(parse_poly("beta"), parse_poly("delta")),
        )
        assert check_family(system, fam).satisfied


class TestDecideAtPoint:
    def test_g1_inconsistent(self):
        system = stage("G1", "D").system
        verdict = decide_at_point(system, {"alpha": F(1), "beta": F(0)})
        assert not verdict.solvable

    def test_g5_one_dimensional_solution(self):
        system = stage("G5", "D").system
        point = {"alpha": F(1), "beta": F(0), "gamma": F(0), "delta": F(1)}
        verdict = decide_at_point(system, point)
        assert verdict.solvable
        assert verdict.dimension == 1
        assert verdict.witness["mu"] == 0
        assert verdict.witness["mu1"] == 0 and verdict.witness["mu2"] == 0

    def test_g3_three_dimensional_solution(self):
        system = stage("G3", "D").system
        verdict = decide_at_point(system, {"alpha": F(0), "beta": F(0), "gamma": F(5)})
        assert verdict.solvable
        assert verdict.dimension == 3
        assert verdict.witness["mu"] == 0

    def test_constraint_violation_raised(self):
        system = stage("G5", "D").system
        with pytest.raises(ConstraintViolated):
            decide_at_point(system, {"alpha": F(1), "beta": F(1), "gamma": F(1), "delta": F(1)})
        with pytest.raises(ConstraintViolated):
            decide_at_point(system, {"alpha": F(1), "beta": F(0), "gamma": F(0), "delta": F(-1)})
        with pytest.raises(ConstraintViolated):
            decide_at_point(system, {"alpha": F(1)})

    def test_perturbed_requires_nonzero_a0(self):
        system = stage("G1", "D", perturbed=True).system
        point = {"alpha": F(1), "beta": F(0), "a0": F(0)}
        assert not soliton.check_point_admissible(system, point)
        assert soliton.check_point_admissible(system, {**point, "a0": F(2)})
        with pytest.raises(ConstraintViolated, match=r"^G1/D does not admit "
                           r"\{'alpha': Fraction\(1, 1\), 'beta': Fraction\(0, 1\), "
                           r"'a0': Fraction\(0, 1\)\}$"):
            decide_at_point(system, point)

    def test_a0_is_a_nonzero_constraint(self):
        """A perturbed system lists a0 last among its nonzero constraints, and
        its Einstein form shares the same compiled constraint rows."""
        for group, dist, perturbed, eta in all_configurations():
            system = stage(group, dist, perturbed, eta).system
            names = [name for c in system.nonzero_constraints for name in c.params()]
            assert names.count("a0") == perturbed
            if perturbed:
                assert system.nonzero_constraints[-1] == Poly.var("a0")
            assert system.einstein.constraint_rows is system.constraint_rows


CONFIGURATIONS = list(all_configurations())
# Values that put a point on a catalog constraint variety (and off it) often.
VALUES = st.one_of(st.sampled_from([F(0), F(1), F(-1), F(1, 2)]),
                   st.fractions(min_value=-9, max_value=9, max_denominator=9))


@given(st.sampled_from(CONFIGURATIONS), st.booleans(), st.integers(0, 2**16),
       st.fixed_dictionaries({n: VALUES for n in ("alpha", "beta", "gamma", "delta", "a0")}),
       st.none() | st.sampled_from(("alpha", "beta", "gamma", "delta", "a0")))
@settings(max_examples=120, deadline=None)
def test_admission_is_the_constraints_at_the_point(cfg, drawn, seed, values, missing):
    """check_point_admissible holds exactly where every parameter is bound,
    each equality constraint vanishes and no nonzero constraint does, at
    points on the equality varieties (drawn there) and off them, some of
    them missing a parameter."""
    system = stage(*cfg).system
    point = {name: values[name] for name in system.parameters}
    if drawn:
        point = next(draw_points(system.equality_constraints, list(system.parameters), seed, 20),
                     point)
    point.pop(missing, None)
    expected = (all(name in point for name in system.parameters)
                and all(c.eval_at(point) == 0 for c in system.equality_constraints)
                and all(c.eval_at(point) != 0 for c in system.nonzero_constraints))
    assert soliton.check_point_admissible(system, point) is expected


class TestSolver:
    def test_unique_solution(self):
        # x + y - 3 = 0, x - y - 1 = 0  ->  x=2, y=1
        verdict = solve_affine([[1, 1, 0, 0, -3], [1, -1, 0, 0, -1]], 4)
        assert verdict.solvable and verdict.witness["mu1"] == 2 and verdict.witness["mu2"] == 1
        assert verdict.dimension == 2

    def test_inconsistent_rows(self):
        verdict = solve_affine([[0, 0, 0, 0, 5]], 4)
        assert not verdict.solvable

    def test_redundant_rows_do_not_reduce_dimension(self):
        rows = [[1, 0, 0, 0, -1], [2, 0, 0, 0, -2]]
        verdict = solve_affine(rows, 4)
        assert verdict.solvable and verdict.dimension == 3


class TestSampling:
    def test_grid_respects_constraints(self):
        system = stage("G5", "D").system
        for point in grid_points(system):
            assert parse_poly("alpha*gamma + beta*delta").eval_at(point) == 0
            assert parse_poly("alpha + delta").eval_at(point) != 0

    def test_random_points_deterministic(self):
        system = stage("G2", "D").system
        a = random_points(system, 30, seed=7)
        b = random_points(system, 30, seed=7)
        assert a == b
        assert all(p["gamma"] != 0 for p in a)
        assert random_points(system, 0, seed=7) == []

    def test_constrained_group_sampling(self):
        system = stage("G6", "D").system
        pts = random_points(system, 40, seed=3)
        for point in pts:
            assert parse_poly("alpha*gamma - beta*delta").eval_at(point) == 0
            assert parse_poly("alpha + delta").eval_at(point) != 0

    def test_table_draws_match_randint(self):
        """A draw from RANDOM_VALUES consumes the stream as the two randint
        calls it replaces do, so every point is the one they gave."""
        table, ints = random.Random(177147), random.Random(177147)
        for _ in range(5000):
            value = table.choice(table.choice(RANDOM_VALUES))
            assert value == Fraction(ints.randint(-9, 9), ints.randint(1, 9))
        assert table.random() == ints.random()

    def test_constraint_names_are_sampled(self):
        """A parameter named only by a constraint is a parameter of the spec,
        so sampling draws it and keeps the constraint."""
        spec = custom_spec({(1, 2): Vec3.of(parse_poly("alpha"), Poly.zero(), Poly.zero()),
                            (1, 3): Vec3.zero(), (2, 3): Vec3.zero()},
                           nonzero_constraints=[parse_poly("beta")])
        assert spec.parameters == ("alpha", "beta")
        points = sample_plan(build(spec, "D").system, minimum=60, seed=5)
        assert len(points) >= 60 and all(point["beta"] != 0 for point in points)

    def test_constraints_name_only_sampled_names(self):
        """A constraint on a name that is not drawn is refused before any draw."""
        with pytest.raises(AssertionError, match=r"names \['gamma'\], which are not sampled"):
            next(draw_points([parse_poly("alpha*gamma - 1")], ["alpha"], 5, 10))

    def test_sample_plan_size(self):
        system = stage("G1", "D").system
        plan = sample_plan(system, minimum=100, seed=11)
        assert len(plan) >= 100
        assert len({tuple(sorted(p.items())) for p in plan}) > 50

    def test_one_group_shares_one_plan(self):
        """The systems of one group at each distribution, and their Einstein
        systems, have one constraint set: they get one plan, a tuple no
        caller can extend, equal to the plan drawn for each system alone."""
        for perturbed in (False, True):
            systems = [stage("G4", dist, perturbed, eta_sign=1).system for dist in ("D", "D1", "D2")]
            systems += [system.einstein for system in systems]
            plan = sample_plan(systems[0], minimum=80, seed=7)
            assert isinstance(plan, tuple)
            for system in systems:
                assert sample_plan(system, minimum=80, seed=7) is plan
                grid = grid_points(system)
                assert plan == tuple(grid + random_points(system, max(50, 80 - len(grid)), seed=7))

    def test_stage_cache_clear_empties_the_plans(self):
        system = stage("G1", "D").system
        plan = sample_plan(system, minimum=60, seed=3)
        assert soliton._plans
        pipeline.stage.cache_clear()
        assert not soliton._plans
        again = sample_plan(system, minimum=60, seed=3)
        assert again == plan and again is not plan


# sha256 of one line per sampled point, f"{cfg} {sorted(point.items())} {verdict}",
# over every configuration's system and its Einstein system (mu1 = mu2 = mu3 = 0)
# at 20 random points each: 1,920 verdicts, 255 of them solvable, with witnesses.
SAMPLED_VERDICT_DIGEST = "4737ba36cace20ab9c36db6b2be38a9bc0fd2b7607c107e4b12b1233efdb7956"


def test_sampled_verdicts_are_unchanged():
    digest = hashlib.sha256()
    solvable = 0
    for cfg in all_configurations():
        base = stage(*cfg).system
        for system in (base, base.einstein):
            for point in random_points(system, 20, seed=177147):
                verdict = decide_at_point(system, point)
                solvable += verdict.solvable
                digest.update(f"{cfg} {sorted(point.items())} {verdict}\n".encode())
    assert solvable == 255
    assert digest.hexdigest() == SAMPLED_VERDICT_DIGEST
