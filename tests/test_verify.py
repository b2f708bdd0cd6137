import hashlib
from dataclasses import replace
from fractions import Fraction
from functools import cached_property
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottsol import pipeline, registry, soliton, verify
from bottsol.registry import Claim, Fixture, FamilyRecord, TheoremRecord
from bottsol.scalar import DenominatorZero, Poly, parse_poly, parse_ratfun
from bottsol.soliton import (
    UNKNOWNS, InconsistentFamily, IntegerRows, SolutionFamily, draw_points, equation_values,
)
from bottsol.verify import (
    _EINSTEIN_ZERO,
    CONFIRMED,
    DISCREPANCY,
    KNOWN_DISCREPANCY,
    MATCH,
    MISMATCH,
    REFUTED,
    EntryDiff,
    _diff_delta,
    _diff_system,
    _family_from_record,
    _spot_check_family,
    verify_fixture,
    verify_theorem,
)
from helpers import all_configurations, power, ratfun_eval_at, reference_diff_system


@pytest.fixture(scope="module")
def fixtures():
    return {fix.id: fix for fix in registry.load_fixtures()}


@pytest.fixture(scope="module")
def theorems():
    return {rec.id: rec for rec in registry.load_theorems()}


@pytest.fixture(scope="module")
def errata():
    return registry.errata_signatures()


class TestVerifyFixture:
    def test_bott_table_matches(self, fixtures):
        assert verify_fixture(fixtures["2.11"]).status == MATCH

    def test_all_zero_curvature_matches(self, fixtures):
        assert verify_fixture(fixtures["3.4"]).status == MATCH

    def test_corrupted_copy_reports_mismatch(self, fixtures):
        good = fixtures["2.11"]
        rows = tuple(
            ((key, "-alpha*e1 - beta*e2") if key == (3, 1) else (key, expr))
            for key, expr in good.rows
        )
        mutated = Fixture(good.id, good.kind, good.group, good.distribution, good.perturbed, rows)
        report = verify_fixture(mutated)
        assert report.status == MISMATCH
        (diff,) = report.mismatches
        assert diff.key == "3,1"
        assert diff.expected == "-alpha*e1 - beta*e2"
        assert diff.computed == "alpha*e1 + beta*e2"

    def test_known_discrepancy_classification(self, fixtures, errata):
        report = verify_fixture(fixtures["3.22"], errata)
        assert report.status == KNOWN_DISCREPANCY
        assert {d.key for d in report.mismatches} == {"1,3", "3,1"}

    def test_unlisted_mismatch_stays_mismatch(self, fixtures):
        # Without the errata registry the same fixture is a plain mismatch.
        assert verify_fixture(fixtures["3.22"]).status == MISMATCH

    def test_unlisted_change_on_a_diagonal_key_is_reported(self):
        """No catalog perturbation changes a diagonal entry, so the scan's
        first-index-at-most-second rule is pinned on a hand-made form."""
        alpha, beta = parse_poly("alpha"), parse_poly("beta")
        base = {(1, 1): alpha, (1, 2): alpha, (2, 1): alpha, (2, 2): beta}
        computed = {(1, 1): beta, (1, 2): beta, (2, 1): beta, (2, 2): beta}
        assert _diff_delta({(2, 1): beta}, computed, base) == [
            EntryDiff("1,1", "(listed as unchanged)", "beta (was alpha)"),
        ]

    def test_every_erratum_is_reproduced_by_a_diff(self, fixtures, errata):
        """Each audited entry is the exact diff of some fixture in a default
        pass, so an entry left behind by a corrected table fails here."""
        reproduced = {(fix.id, d.key, d.expected, d.computed)
                      for fix in fixtures.values() for d in verify_fixture(fix, errata).mismatches}
        assert sorted(errata - reproduced) == []

    def test_deterministic(self, fixtures, errata):
        a = verify_fixture(fixtures["5.43"], errata)
        b = verify_fixture(fixtures["5.43"], errata)
        assert a.status == b.status == MATCH
        assert a.mismatches == b.mismatches


class TestVerifyTheorem:
    def test_negative_theorem_confirmed(self, theorems):
        report = verify_theorem(theorems["2.5"], minimum_points=100)
        assert report.status == CONFIRMED
        assert report.points_checked >= 100

    def test_positive_theorem_confirmed(self, theorems):
        report = verify_theorem(theorems["2.9"])
        assert report.status == CONFIRMED
        assert all(f.status == CONFIRMED for f in report.families)
        assert all(f.spot_checks >= 25 for f in report.families)

    def test_false_nonexistence_claim_is_refuted(self):
        fake = TheoremRecord(
            id="fake", group="G5", distribution="D", perturbed=False, kind="not_soliton",
            claims=(Claim("G5", False, None),),
        )
        report = verify_theorem(fake, minimum_points=30)
        assert report.status == REFUTED
        assert report.witness is not None

    def test_false_family_is_discrepancy_with_residual(self):
        fake = TheoremRecord(
            id="fake2",
            group="G1",
            distribution="D",
            perturbed=False,
            kind="families",
            claims=(Claim("G1", False, (
                FamilyRecord(
                    label="1",
                    printed_label="1",
                    bindings=(("mu", "0"), ("mu1", "0"), ("mu2", "0"), ("mu3", "0")),
                    side_equal=(),
                    side_nonzero=(),
                ),
            )),),
        )
        report = verify_theorem(fake)
        assert report.status == DISCREPANCY
        (family,) = report.families
        assert family.residual is not None and family.residual != "0"

    def test_self_contradicting_completion_is_refuted(self):
        # The completion binds alpha = 0 and requires alpha != 0 at once.
        fake = TheoremRecord(
            id="fake3", group="G1", distribution="D", perturbed=False, kind="families",
            claims=(Claim("G1", False, (
                FamilyRecord(
                    label="1",
                    printed_label="1",
                    bindings=(("mu", "0"), ("mu1", "0"), ("mu2", "0"), ("mu3", "0")),
                    side_equal=(),
                    side_nonzero=(),
                    completion_bindings=(("alpha", "0"),),
                    completion_nonzero=("alpha",),
                ),
            )),),
        )
        report = verify_theorem(fake)
        assert report.status == REFUTED
        (family,) = report.families
        assert family.status == DISCREPANCY
        assert family.completion_status == REFUTED

    def test_open_question_family_records_residual(self, theorems):
        # The distribution-D1 family stated with gamma = beta*(beta^2 -
        # beta*delta)/delta is checked literally and recorded as violated.
        report = verify_theorem(theorems["5.16"])
        assert report.status == DISCREPANCY
        by_label = {f.branch: f for f in report.families}
        assert by_label["1"].status == CONFIRMED
        assert by_label["2"].status == CONFIRMED
        assert by_label["3"].status == DISCREPANCY
        assert by_label["3"].residual is not None

    def test_einstein_corollary(self, theorems):
        report = verify_theorem(theorems["C3.5"], minimum_points=60)
        assert report.status == CONFIRMED
        assert len(report.families) == 4  # the positive clauses
        assert report.points_checked > 0

    def test_false_not_einstein_clause_is_refuted(self):
        # G3 on D has Einstein solitons (C3.5), so a clause denying them fails.
        fake = TheoremRecord(
            id="fakeE", group=None, distribution="D", perturbed=False, kind="einstein",
            claims=(Claim("G3", True, None),),
        )
        report = verify_theorem(fake, minimum_points=30)
        assert report.status == REFUTED
        assert report.points_checked == 266
        assert report.witness.startswith("G3: point ")


class TestRegistryCompleteness:
    LC = {"2.10", "2.18", "2.26", "2.35", "3.2", "3.10", "3.18"}
    BOTT = {
        "2.11", "2.19", "2.28", "2.37", "3.3", "3.11", "3.19",
        "5.2", "5.8", "5.14", "5.20", "5.26", "5.32", "5.38",
        "7.2", "7.8", "7.14", "7.22", "7.27", "7.33", "7.39",
    }
    CURV = {
        "2.12", "2.20", "2.29", "2.38", "3.4", "3.12", "3.20",
        "5.3", "5.9", "5.15", "5.21", "5.27", "5.33", "5.39",
        "7.3", "7.9", "7.15", "7.23", "7.28", "7.34", "7.40",
    }
    RICCI = {
        "2.13", "2.21", "2.30", "2.39", "3.5", "3.13", "3.21",
        "5.4", "5.10", "5.16", "5.22", "5.28", "5.34", "5.40",
        "7.4", "7.10", "7.16", "7.24", "7.29", "7.35", "7.41",
    }
    SYM = {
        "2.14", "2.22", "2.31", "2.40", "3.6", "3.14", "3.22",
        "5.5", "5.11", "5.17", "5.23", "5.29", "5.35", "5.41",
        "7.5", "7.11", "7.17", "7.25", "7.30", "7.36", "7.42",
    }
    LIE = {
        "2.15", "2.23", "2.32", "2.41", "3.7", "3.15", "3.23",
        "5.6", "5.12", "5.18", "5.24", "5.30", "5.36", "5.42",
        "7.6", "7.12", "7.19", "7.25.1", "7.31", "7.37", "7.43",
    }
    SYSTEMS = {
        "2.16", "2.24", "2.33", "2.42", "3.8", "3.16", "3.24",
        "5.7", "5.13", "5.19", "5.25", "5.31", "5.37", "5.43",
        "7.7", "7.13", "7.20", "7.26", "7.32", "7.38", "7.44",
        "4.8", "4.11", "4.14", "4.17", "4.20", "4.23", "4.26",
        "6.8", "6.11", "6.14", "6.17", "6.20", "6.23", "6.26",
        "8.8", "8.11", "8.14", "8.17", "8.20", "8.23", "8.26",
    }
    CURV_DELTA = {
        "4.6", "4.9", "4.12", "4.15", "4.18", "4.21", "4.24",
        "6.6", "6.9", "6.12", "6.15", "6.18", "6.21", "6.24",
        "8.6", "8.9", "8.12", "8.15", "8.18", "8.21", "8.24",
    }
    SYM_DELTA = {
        "4.7", "4.10", "4.13", "4.16", "4.19", "4.22", "4.25",
        "6.7", "6.10", "6.13", "6.16", "6.19", "6.22", "6.25",
        "8.7", "8.10", "8.13", "8.16", "8.19", "8.22", "8.25",
    }

    def test_fixture_ids_cover_every_listed_table(self, fixtures):
        by_kind = {}
        for fix in fixtures.values():
            by_kind.setdefault(fix.kind, set()).add(fix.id)
        assert by_kind["levi_civita"] == self.LC
        assert by_kind["bott"] == self.BOTT
        assert by_kind["curvature"] == self.CURV
        assert by_kind["ricci"] == self.RICCI
        assert by_kind["sym_ricci"] == self.SYM
        assert by_kind["lie_derivative"] == self.LIE
        assert by_kind["system"] == self.SYSTEMS
        assert by_kind["curvature_delta"] == self.CURV_DELTA
        assert by_kind["sym_ricci_delta"] == self.SYM_DELTA
        assert len(fixtures) == 196

    def test_theorem_registry_covers_all_claims(self, theorems):
        negatives = {"2.5", "2.8", "2.12", "4.2", "4.3", "4.5", "5.4", "5.8", "5.13", "6.2"}
        assert {t for t, rec in theorems.items() if rec.kind == "not_soliton"} == negatives
        families = {t for t, rec in theorems.items() if rec.kind == "families"}
        assert len(families) == 32
        assert {t for t, rec in theorems.items() if rec.kind == "einstein"} == {
            "C3.5", "C5.8", "C7.8"
        }
        # every (group, distribution, perturbed) configuration is claimed
        configs = {
            (rec.group, rec.distribution, rec.perturbed)
            for rec in theorems.values()
            if rec.kind != "einstein"
        }
        assert len(configs) == 42

    def test_errata_entries_all_fire(self, fixtures, errata):
        # Every audited entry is exercised by exactly the diffs the engine
        # produces; none is stale.
        produced = set()
        for fix in fixtures.values():
            report = verify_fixture(fix, errata)
            assert report.status != MISMATCH, (fix.id, report.mismatches)
            for d in report.mismatches:
                produced.add((fix.id, d.key, d.expected, d.computed))
        assert produced == errata


_scales = st.fractions(min_value=-3, max_value=3, max_denominator=4)  # zero included


@st.composite
def _polys(draw):
    """Up to three terms, each a scaled power of one name."""
    total = Poly.zero()
    terms = st.tuples(st.sampled_from(("alpha", "beta", "mu1")), st.integers(0, 2), _scales)
    for name, k, c in draw(st.lists(terms, max_size=3)):
        total = total + power(Poly.var(name), k).scaled(c)
    return total


@st.composite
def _equation_sides(draw):
    """Two lists of constant multiples (zero among them) of polynomials from
    one small pool, so each side repeats equations and shares some with the
    other up to scale."""
    pool = draw(st.lists(_polys(), min_size=1, max_size=4))
    entries = st.tuples(st.sampled_from(pool), _scales).map(lambda pc: pc[0].scaled(pc[1]))
    return draw(st.lists(entries, max_size=6)), tuple(draw(st.lists(entries, max_size=6)))


def _as_built(equations) -> tuple:
    """Equations as `soliton.build_system` stores them: nonzero, primitive
    and each listed once."""
    return tuple(dict.fromkeys(p.primitive() for p in equations if not p.is_zero()))


@settings(max_examples=200, deadline=None)
@given(_equation_sides())
def test_system_diff_by_value_matches_the_printed_comparison(sides):
    stored, computed = sides[0], _as_built(sides[1])
    assert _diff_system(stored, computed) == reference_diff_system(stored, computed)


def test_stored_systems_diff_as_the_printed_comparison(fixtures):
    """Every stored system at each G4 sign, against its recomputed equations
    and against its own stored equations, where both sides are the same."""
    compared = 0
    for fix in fixtures.values():
        if fix.kind != "system":
            continue
        for eta in pipeline.eta_signs(fix.group):
            stored = fix.system_equations(eta=eta)
            computed = pipeline.stage(fix.group, fix.distribution, fix.perturbed, eta).system.equations
            assert _diff_system(stored, computed) == reference_diff_system(stored, computed)
            assert _diff_system(stored, _as_built(stored)) == []
            compared += 1
    assert compared == 48  # 42 systems, the 6 of G4 at both signs


def test_fixture_checks_compile_no_point_evaluator():
    """Fixture checks decide no sample point, so a cold pass over all 196
    fixtures compiles neither the equation nor the constraint rows of any
    stage's system: both are built on first use only."""
    pipeline.stage.cache_clear()
    fixtures = registry.load_fixtures()
    assert len(fixtures) == 196
    for fix in fixtures:
        verify_fixture(fix)
    for cfg in all_configurations():
        cached = vars(pipeline.stage(*cfg).system)
        assert "integer_rows" not in cached and "constraint_rows" not in cached


# --------------------------------------------------------------------------
# Spot checks through compiled evaluators
# --------------------------------------------------------------------------


def _claim_families(completions=True):
    """(system, family, closed bindings) for every family of every claim at
    each G4 sign, as printed and, where a completion is recorded and
    `completions` is true, completed."""
    for rec in registry.load_theorems():
        for claim in rec.claims:
            for fam in claim.families or ():
                if claim.einstein:
                    fam = replace(fam, bindings=_EINSTEIN_ZERO + fam.bindings)
                for eta in pipeline.eta_signs(claim.group):
                    system = pipeline.stage(claim.group, rec.distribution, rec.perturbed, eta).system
                    for completed in sorted({False, completions and fam.has_completion()}):
                        family = _family_from_record(fam, eta, completed)
                        try:
                            binds = family.closed_bindings
                        except InconsistentFamily:
                            continue
                        yield system, family, binds


def _first_points(system, binds, count=20):
    free = [n for n in list(system.parameters) + list(UNKNOWNS) if n not in binds]
    return list(islice(draw_points([], free, 177147, count), count))


def test_compiled_bindings_equal_ratfun_values():
    """SolutionFamily.instantiate, with no nonzero side condition to test,
    extends a point by every bound value helpers.ratfun_eval_at gives, in
    binding order, and gives None exactly where it meets a zero
    denominator."""
    families = vanished = 0
    for system, family, binds in _claim_families():
        families += 1
        bound_only = replace(family, side_nonzero=())
        for point in _first_points(system, binds):
            try:
                expected = dict(point)
                for name, value in binds.items():
                    expected[name] = ratfun_eval_at(value, point)
            except DenominatorZero:
                expected = None
                vanished += 1
            full = bound_only.instantiate(point)
            assert full == expected
            assert full is None or list(full) == list(expected)
    assert families > 100 and vanished > 0


def _assert_positive_multiple(values, polys, point):
    """values[k] = c * polys[k](point) for one c > 0, each an exact int."""
    assert all(type(v) is int for v in values)
    exact = [p.eval_at(point) for p in polys]
    assert [v == 0 for v in values] == [e == 0 for e in exact]
    ratios = {Fraction(v) / e for v, e in zip(values, exact) if e}
    assert len(ratios) <= 1 and all(r > 0 for r in ratios)
    return exact.count(0)


def test_equation_and_side_rows_agree_with_eval_at():
    """Each value soliton.equation_values gives from SolitonSystem.integer_rows
    and each value of a family's compiled nonzero side conditions is the
    polynomial's value times one positive constant, so every zero test
    agrees with Poly.eval_at, on the family locus (where the equations
    vanish) and off it; SolutionFamily.instantiate refuses a point exactly
    where one of the side conditions vanishes."""
    zeros = refused = 0
    for system, family, binds in _claim_families():
        bound_only = replace(family, side_nonzero=())
        for point in _first_points(system, binds):
            full = bound_only.instantiate(point)
            if full is None:
                continue
            rows = system.integer_rows.at({k: v for k, v in full.items() if k not in UNKNOWNS})
            zeros += _assert_positive_multiple(equation_values(rows, full), system.equations,
                                               full)
            side_zeros = _assert_positive_multiple(family._nonzero_rows.at(full)[0],
                                                   family.side_nonzero, full)
            assert family.instantiate(point) == (None if side_zeros else full)
            refused += bool(side_zeros)
            off = {**full, "mu": full["mu"] + 1}
            _assert_positive_multiple(equation_values(rows, off), system.equations, off)
    assert zeros > 1000 and refused > 0


# sha256 of one line per point, f"{group} {distribution} {label} {sorted(point.items())}",
# that draw_points yields in 100 attempts at seed 177147 over the draws
# _spot_check_family makes for every printed family it checks (check_family
# satisfied) at each G4 sign: 74 families, 7,355 points.
SPOT_CHECK_DRAW_DIGEST = "dd6f83aa2b4857c7939145e612f0e08871f355200e16800185c189aa8b85225f"


def test_spot_check_draws_are_unchanged():
    digest = hashlib.sha256()
    families = points = 0
    for system, family, binds in _claim_families(completions=False):
        if not soliton.check_family(system, family).satisfied:
            continue
        families += 1
        reduced = family.reduced(system.equality_constraints + family.side_equal)
        free = [n for n in list(system.parameters) + list(UNKNOWNS) if n not in binds]
        for point in draw_points(reduced, free, 177147, 100):
            points += 1
            digest.update(f"{system.group} {system.distribution} {family.label} "
                          f"{sorted(point.items())}\n".encode())
    assert (families, points) == (74, 7355)
    assert digest.hexdigest() == SPOT_CHECK_DRAW_DIGEST


# Each message is the one the per-point RatFun / Poly evaluation route gave.
WRONG_FAMILIES = [
    ("6.5", 1, (("a0", "beta - eta"), ("mu3", "0"), ("mu2", "-(beta - eta)"),
                ("mu1", "1 + 1/(beta - eta)^2"), ("mu", "(beta - eta)^2")), ("beta - eta",),
     "family wrong: equation beta*mu1 - alpha - 2*mu1 = -53/12 != 0 at {'alpha': Fraction(2, 3), "
     "'beta': Fraction(-1, 1), 'a0': Fraction(-2, 1), 'mu3': Fraction(0, 1), 'mu2': Fraction(2, 1), "
     "'mu1': Fraction(5, 4), 'mu': Fraction(4, 1)}"),
    ("6.3", None, (("mu3", "0"), ("mu1", "alpha*gamma/beta")), ("gamma",),
     "family wrong: equation beta^2 + gamma^2 - mu = 19/8 != 0 at {'alpha': Fraction(2, 3), "
     "'beta': Fraction(-1, 1), 'gamma': Fraction(3, 2), 'a0': Fraction(-1, 1), 'mu2': Fraction(7, 4), "
     "'mu': Fraction(7, 8), 'mu3': Fraction(0, 1), 'mu1': Fraction(-1, 1)}"),
]


@pytest.mark.parametrize("theorem_id, eta, bindings, nonzero, message", WRONG_FAMILIES)
def test_wrong_family_fails_the_spot_check(theorems, theorem_id, eta, bindings, nonzero, message):
    rec = theorems[theorem_id]
    system = pipeline.stage(rec.group, rec.distribution, rec.perturbed, eta).system
    family = SolutionFamily(
        "wrong",
        tuple((name, parse_ratfun(expr, eta=eta)) for name, expr in bindings),
        side_nonzero=tuple(parse_poly(expr, eta=eta) for expr in nonzero),
    )
    with pytest.raises(AssertionError) as exc:
        _spot_check_family(system, family, 5, 177147)
    assert str(exc.value) == message


def test_one_theorem_pass_compiles_each_row_set_once(theorems, monkeypatch):
    """Over one pass of the 45 records, evaluators are generated at most once
    per row set of each distinct system (equations, branch and constraints;
    an Einstein system reuses its base's constraints), two per spot-checked
    family (bound values and nonzero side conditions) and one per row set
    of the draws, read from the memos of each draw_points call: a
    constraint case's coefficients, and the [a, b] of each of its shapes
    that has a target."""
    generated = []
    evaluate = IntegerRows.__dict__["_evaluate"].func

    def counted(rows):
        generated.append(rows)
        return evaluate(rows)

    prop = cached_property(counted)
    prop.__set_name__(IntegerRows, "_evaluate")
    monkeypatch.setattr(IntegerRows, "_evaluate", prop)
    spot_checks = []
    spot_check = verify._spot_check_family

    def counted_spot_check(*args):
        spot_checks.append(args)
        return spot_check(*args)

    monkeypatch.setattr(verify, "_spot_check_family", counted_spot_check)
    memos = {}  # id -> the memos of one draw_points call, kept alive here
    solve_equalities = soliton._solve_equalities

    def recorded_draw(memo, point, free, rng):
        memos[id(memo)] = memo
        return solve_equalities(memo, point, free, rng)

    monkeypatch.setattr(soliton, "_solve_equalities", recorded_draw)
    pipeline.stage.cache_clear()
    for rec in theorems.values():
        verify_theorem(rec)
    bases = [vars(pipeline.stage(*cfg).system) for cfg in all_configurations()]
    einsteins = [vars(base["einstein"]) for base in bases if "einstein" in base]
    assert einsteins
    for base in bases:
        if "einstein" in base:
            assert vars(base["einstein"])["constraint_rows"] is base["constraint_rows"]
    row_sets = sum(name in cached for cached in bases + einsteins
                   for name in ("integer_rows", "branch_rows", "constraint_rows"))
    row_sets -= len(einsteins)  # shared, not compiled again
    draw_row_sets = 0
    for memo in memos.values():
        for _, _, cases in memo:
            for _, _, _, shapes in cases.values():
                draw_row_sets += 1 + sum(target is not None for _, target, _ in shapes.values())
    assert len(spot_checks) > 50 and draw_row_sets > 0
    assert len(generated) <= row_sets + 2 * len(spot_checks) + draw_row_sets
    pipeline.stage.cache_clear()


def test_a_spot_check_evaluates_the_system_once_per_point(theorems, monkeypatch):
    """The equations are tested on the rows the spot check evaluated, and
    solvable_at is handed the same rows, so the system's integer rows are
    evaluated once per decided point; where the branch row leaves a point
    to the loop, its elimination consumes those very rows, with no copy."""
    rec = theorems["2.9"]
    system = pipeline.stage(rec.group, rec.distribution, rec.perturbed).system
    family = _family_from_record(rec.claims[0].families[0], None, completed=False)
    system.branch_rows  # eliminated over Polys once, before the point rows are recorded
    evaluated, decided, eliminated = [], [], []
    at, decide, eliminate = IntegerRows.at, verify.solvable_at, soliton._eliminate

    def counted_at(rows, point):
        values = at(rows, point)
        if rows is system.integer_rows:
            evaluated.append((point, values))
        return values

    def counted_decide(system, point, rows):
        decided.append((point, rows))
        return decide(system, point, rows)

    def counted_eliminate(m, n_unknowns):
        eliminated.append(m)
        return eliminate(m, n_unknowns)

    monkeypatch.setattr(IntegerRows, "at", counted_at)
    monkeypatch.setattr(verify, "solvable_at", counted_decide)
    monkeypatch.setattr(soliton, "_eliminate", counted_eliminate)
    assert _spot_check_family(system, family, 25, 177147) == 25
    assert len(decided) == 25 and len(evaluated) == 25
    assert all(p is q and rows is values for (p, rows), (q, values) in zip(decided, evaluated))
    assert eliminated and all(any(m is rows for _, rows in decided) for m in eliminated)


def test_a_spot_check_decides_only_points_that_keep_the_side_conditions(theorems, monkeypatch):
    """The family's nonzero side conditions are tested before a point is
    admitted, evaluated and decided: check_point_admissible sees only the
    drawn points that keep them, and solvable_at, and the points counted,
    only those of these that admission accepts, in the order drawn."""
    rec = theorems["3.4"]
    system = pipeline.stage(rec.group, rec.distribution, rec.perturbed).system
    (family,) = [_family_from_record(fam, None, completed=False)
                 for fam in rec.claims[0].families if fam.label == "2"]
    assert [str(p) for p in family.side_nonzero] == ["mu1", "delta"]
    drawn, admitted, decided = [], [], []
    draw, admit, decide = verify.draw_points, verify.check_point_admissible, verify.solvable_at

    def recorded_draws(*args):
        for point in draw(*args):
            drawn.append(dict(point))
            yield point

    def recorded_admit(system, point):
        admitted.append(point)
        return admit(system, point)

    def recorded_decide(system, point, rows):
        decided.append(point)
        return decide(system, point, rows)

    monkeypatch.setattr(verify, "draw_points", recorded_draws)
    monkeypatch.setattr(verify, "check_point_admissible", recorded_admit)
    monkeypatch.setattr(verify, "solvable_at", recorded_decide)
    assert _spot_check_family(system, family, 25, 177147) == 25
    binds = family.closed_bindings
    kept = []
    for point in drawn:
        full = {**point, **{name: ratfun_eval_at(value, point) for name, value in binds.items()}}
        if all(p.eval_at(full) for p in family.side_nonzero):
            kept.append({k: v for k, v in full.items() if k not in UNKNOWNS})
    assert len(kept) < len(drawn)
    assert admitted == kept
    assert decided == [point for point in kept if soliton.check_point_admissible(system, point)]


def test_each_source_is_compiled_once_until_the_stages_are_cleared(theorems, monkeypatch):
    """A default-count pass over the 45 records compiles each generated
    source text once, however many row sets generate it;
    pipeline.stage.cache_clear empties the code cache with the stages, so the
    next pass compiles again."""
    compiled = []

    def counted(source, filename, mode):
        compiled.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(soliton, "compile", counted, raising=False)
    pipeline.stage.cache_clear()
    for rec in theorems.values():
        verify_theorem(rec)
    first = set(compiled)
    assert len(compiled) == len(first) > 50
    pipeline.stage.cache_clear()
    compiled.clear()
    verify_theorem(theorems["2.9"])
    assert compiled and len(compiled) == len(set(compiled)) and set(compiled) <= first
    pipeline.stage.cache_clear()
