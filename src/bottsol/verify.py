"""Comparison engine: recompute everything, compare with the stored tables,
and check every classification theorem.

Outcome vocabulary:

* fixtures:  Match, or Mismatch with per-entry expected/computed payloads.
  A Mismatch listed in the audited errata registry is a known discrepancy
  (the stored table disagrees with its own surrounding computation); an
  unlisted one signals a real problem and fails verification.
* theorems:  Confirmed, Refuted (a non-existence claim with an explicit
  solvable witness, or an existence family that is wrong even after the
  recorded correction), or Discrepancy (family violated as printed, with
  residual; confirmed in corrected form when a completion is recorded).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace

from . import pipeline, registry
from .algebra import eta_signs
from .registry import FamilyRecord, Fixture, TheoremRecord, parsed
from .soliton import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    DEFAULT_SPOT_SAMPLES,
    UNKNOWNS,
    InconsistentFamily,
    SolitonSystem,
    SolutionFamily,
    check_family,
    check_point_admissible,
    draw_points,
    equation_values,
    sample_plan,
    solvable_at,
    solve_at_point,
)

MATCH = "match"
MISMATCH = "mismatch"
KNOWN_DISCREPANCY = "known_discrepancy"

CONFIRMED = "confirmed"
REFUTED = "refuted"
DISCREPANCY = "discrepancy"

FIXTURE_STATUSES = (MATCH, KNOWN_DISCREPANCY, MISMATCH)


@dataclass(frozen=True, slots=True)
class EntryDiff:
    key: str
    expected: str
    computed: str


# Each report field is the structured-output key of the same name.


@dataclass(frozen=True, slots=True)
class FixtureReport:
    id: str
    kind: str
    group: str
    distribution: str
    perturbed: bool
    status: str
    mismatches: tuple = ()  # EntryDiff
    elapsed_ms: float = 0.0


def _key_str(key) -> str:
    return ",".join(str(k) for k in key)


def _diff_system(expected: list, computed: tuple) -> list:
    """The equations on one side only, compared as primitive polynomials: the
    stored ones are made primitive here, and `soliton.build_system` builds
    the computed ones primitive, nonzero and distinct.  Only those are
    printed, sorted by their printed form, which is one to one on primitive
    polynomials."""
    expected = {p.primitive() for p in expected if not p.is_zero()}
    computed = set(computed)
    return ([EntryDiff("equations", text, "(no matching equation)")
             for text in sorted(map(str, expected - computed))]
            + [EntryDiff("equations", "(no matching equation)", text)
               for text in sorted(map(str, computed - expected))])


def _diff_delta(expected: dict, computed: dict, base: dict) -> list:
    """Stored perturbed values at the listed keys; every other entry must be unchanged.

    Changes are scanned with the first index at most the second.  A stored key
    with those two indices swapped, such as (2,1) for a symmetric form, lists
    the change at (1,2).
    """
    changed = {key for key, got in computed.items() if key[0] <= key[1] and got != base[key]}
    diffs = []
    for key in sorted(set(expected) | changed):
        got = computed[key]
        if key in expected:
            if expected[key] != got:
                diffs.append(EntryDiff(_key_str(key), str(expected[key]), str(got)))
        elif (key[1], key[0], *key[2:]) not in expected:
            diffs.append(
                EntryDiff(_key_str(key), "(listed as unchanged)", f"{got} (was {base[key]})")
            )
    return diffs


def _verify_fixture_for_eta(fix: Fixture, eta: int | None) -> list:
    """Diffs of one fixture at one G4 sign.  Levi-Civita tables are stored
    under D, unperturbed, so the stage of the fixture's own configuration
    holds every object a fixture compares against."""
    kind = registry.TABLE_KINDS[fix.kind]
    expected = getattr(fix, kind.loader)(eta=eta)
    recorded = getattr(pipeline.stage(fix.group, fix.distribution, fix.perturbed, eta), kind.records)
    if fix.kind == "system":
        return _diff_system(expected, recorded.equations)
    computed = dict(recorded.entries())
    if fix.kind.endswith("_delta"):
        base = getattr(pipeline.stage(fix.group, fix.distribution, False, eta), kind.records)
        return _diff_delta(expected, computed, dict(base.entries()))
    return [EntryDiff(_key_str(key), str(expected[key]), str(computed[key]))
            for key in sorted(expected) if expected[key] != computed[key]]


def verify_fixture(fix: Fixture, errata: set | frozenset = frozenset()) -> FixtureReport:
    """Recompute the fixture's object and compare entrywise.

    `errata` holds (fixture_id, key, stored, computed) signatures of audited
    discrepancies; only a diff reproducing one of them exactly counts as
    known.
    """
    started = time.perf_counter()
    diffs: list = []
    for eta in eta_signs(fix.group):
        for diff in _verify_fixture_for_eta(fix, eta):
            if diff not in diffs:
                diffs.append(diff)
    if not diffs:
        status = MATCH
    elif all((fix.id, d.key, d.expected, d.computed) in errata for d in diffs):
        status = KNOWN_DISCREPANCY
    else:
        status = MISMATCH
    return FixtureReport(
        fix.id,
        fix.kind,
        fix.group,
        fix.distribution,
        fix.perturbed,
        status,
        tuple(diffs),
        (time.perf_counter() - started) * 1000.0,
    )


# --------------------------------------------------------------------------
# Theorem verification
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FamilyReport:
    branch: str  # the family's label, with its a/b branch suffix
    family: str  # the printed label; branches a/b share one
    status: str  # confirmed | discrepancy | refuted
    residual: str | None = None
    equation: str | None = None
    completion_status: str | None = None  # confirmed | refuted, when a completion exists
    spot_checks: int = 0


@dataclass(frozen=True, slots=True)
class TheoremReport:
    id: str
    group: str | None
    distribution: str
    perturbed: bool
    kind: str
    status: str
    families: tuple = ()  # FamilyReport
    points_checked: int = 0
    witness: str | None = None
    elapsed_ms: float = 0.0


def report_json(report, timing: bool = False) -> dict:
    """The structured form of a report: each field under its own name, a
    tuple of nested reports as a list of theirs.  `elapsed_ms` is left out
    unless `timing` is set."""
    out = {}
    for f in fields(report):
        value = getattr(report, f.name)
        if f.name == "elapsed_ms":
            if timing:
                out["elapsed_ms"] = round(value, 3)
        elif isinstance(value, tuple):
            out[f.name] = [report_json(item, timing) for item in value]
        else:
            out[f.name] = value
    return out


def _family_from_record(rec: FamilyRecord, eta, completed: bool) -> SolutionFamily:
    bindings = list(rec.bindings) + (list(rec.completion_bindings) if completed else [])
    side_eq = list(rec.side_equal) + (list(rec.completion_equal) if completed else [])
    side_nz = list(rec.side_nonzero) + (list(rec.completion_nonzero) if completed else [])
    return SolutionFamily(
        label=rec.label,
        bindings=tuple((name, parsed("parse_ratfun", expr, eta)) for name, expr in bindings),
        side_equal=tuple(parsed("parse_poly", expr, eta) for expr in side_eq),
        side_nonzero=tuple(parsed("parse_poly", expr, eta) for expr in side_nz),
    )


def _spot_check_family(
    system: SolitonSystem,
    family: SolutionFamily,
    count: int,
    seed: int,
) -> int:
    """Instantiate the family at random points that keep the family's nonzero
    side conditions and that check_point_admissible admits; each point must
    solve every equation exactly, and solvable_at must find the system
    solvable there.  Returns the number of points checked; raises
    AssertionError on any failure.  An admitted point's integer rows are
    evaluated once: they give the equations' values, then solvable_at
    consumes them, with no copy, where the branch row does not decide."""
    binds = family.closed_bindings
    free_names = [n for n in list(system.parameters) + list(UNKNOWNS) if n not in binds]
    reduced_eqs = family.reduced(system.equality_constraints + family.side_equal)

    done = 0
    for point in draw_points(reduced_eqs, free_names, seed, count * 500):
        full = family.instantiate(point)
        if full is None:
            continue
        group_point = {k: v for k, v in full.items() if k not in UNKNOWNS}
        if not check_point_admissible(system, group_point):
            continue
        rows = system.integer_rows.at(group_point)
        for eq, value in zip(system.equations, equation_values(rows, full)):
            if value:
                raise AssertionError(
                    f"family {family.label}: equation {eq} = {eq.eval_at(full)} != 0 at {full}"
                )
        if not solvable_at(system, group_point, rows):
            raise AssertionError(
                f"family {family.label}: solvable_at finds no solution at {group_point}"
            )
        done += 1
        if done == count:
            break
    if done < count:
        raise AssertionError(
            f"family {family.label}: only found {done}/{count} admissible sample points"
        )
    return done


def _verify_family(
    system: SolitonSystem,
    rec: FamilyRecord,
    eta,
    spot_points: int,
    seed: int,
) -> FamilyReport:
    try:
        literal = _family_from_record(rec, eta, completed=False)
        verdict = check_family(system, literal)
    except InconsistentFamily as exc:
        return FamilyReport(rec.label, rec.printed_label, DISCREPANCY, residual=str(exc))
    if verdict.satisfied:
        checked = _spot_check_family(system, literal, spot_points, seed)
        return FamilyReport(rec.label, rec.printed_label, CONFIRMED, spot_checks=checked)
    # Completions document the corrected statement; they are checked
    # symbolically only (some corrected side conditions, e.g. sums of two
    # squares, have no generic rational parametrization to sample from).
    # A corrected statement that contradicts itself is refuted.
    completion_status = None
    if rec.has_completion():
        try:
            completed = check_family(system, _family_from_record(rec, eta, completed=True))
            completion_status = CONFIRMED if completed.satisfied else REFUTED
        except InconsistentFamily:
            completion_status = REFUTED
    return FamilyReport(
        rec.label,
        rec.printed_label,
        DISCREPANCY,
        residual=str(verdict.residual),
        equation=str(system.equations[verdict.equation_index]),
        completion_status=completion_status,
    )


def _witness(system: SolitonSystem, points: list) -> str | None:
    """The first sample point at which the system has a solution, described.
    sample_plan admitted every point, so each is only decided (solvable_at)."""
    for point in points:
        if solvable_at(system, point):
            return f"point {point} admits {solve_at_point(system, point)}"
    return None


_EINSTEIN_ZERO = (("mu1", "0"), ("mu2", "0"), ("mu3", "0"))


def verify_theorem(
    rec: TheoremRecord,
    minimum_points: int = DEFAULT_SAMPLES,
    spot_points: int = DEFAULT_SPOT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> TheoremReport:
    """Check every claim of the record at each G4 sign.  A theorem's
    no-soliton claim stops at its first refuted sign; an Einstein corollary
    checks every clause and names the group in its witness."""
    started = time.perf_counter()
    family_reports: list = []
    points_checked = 0
    witness = None
    for claim in rec.claims:
        group, einstein, families = claim.group, claim.einstein, claim.families
        if einstein and families is not None:
            # An Einstein family is a soliton family with mu1 = mu2 = mu3 = 0.
            families = [replace(fam, label=f"{group}.{fam.label}",
                                printed_label=f"{group}.{fam.printed_label}",
                                bindings=_EINSTEIN_ZERO + fam.bindings) for fam in families]
        for eta in eta_signs(group):
            system = pipeline.stage(group, rec.distribution, rec.perturbed, eta).system
            if families is not None:
                for fam in families:
                    report = _verify_family(system, fam, eta, spot_points, seed)
                    family_reports.append(report)
                    points_checked += report.spot_checks
                continue
            if einstein:
                system = system.einstein
            points = sample_plan(system, minimum=minimum_points, seed=seed)
            points_checked += len(points)
            found = _witness(system, points)
            if found is not None:
                witness = f"{group}: {found}" if einstein else found
                if not einstein:
                    break
    if witness is not None or any(f.completion_status == REFUTED for f in family_reports):
        status = REFUTED
    elif any(f.status == DISCREPANCY for f in family_reports):
        status = DISCREPANCY
    else:
        status = CONFIRMED
    return TheoremReport(
        rec.id,
        rec.group,
        rec.distribution,
        rec.perturbed,
        rec.kind,
        status,
        tuple(family_reports),
        points_checked,
        witness,
        (time.perf_counter() - started) * 1000.0,
    )


# --------------------------------------------------------------------------
# Whole-corpus runs
# --------------------------------------------------------------------------


@dataclass
class RunSummary:
    fixture_reports: list = field(default_factory=list)
    theorem_reports: list = field(default_factory=list)

    def counts(self) -> dict:
        out = dict.fromkeys(FIXTURE_STATUSES + (CONFIRMED, DISCREPANCY, REFUTED), 0)
        for rep in self.fixture_reports:
            out[rep.status] += 1
        for rep in self.theorem_reports:
            out[rep.status] += 1
        return out

    def exit_code(self) -> int:
        """1 on a mismatch or refutation, 2 on known discrepancies only, else 0."""
        counts = self.counts()
        if counts[MISMATCH] or counts[REFUTED]:
            return 1
        if counts[KNOWN_DISCREPANCY] or counts[DISCREPANCY]:
            return 2
        return 0


def run_all(minimum_points: int = DEFAULT_SAMPLES, spot_points: int = DEFAULT_SPOT_SAMPLES,
            seed: int = DEFAULT_SEED) -> RunSummary:
    errata = registry.errata_signatures()
    fixtures = registry.load_fixtures()
    registry.check_errata_ids(errata, fixtures)
    summary = RunSummary()
    for fix in fixtures:
        summary.fixture_reports.append(verify_fixture(fix, errata))
    for rec in registry.load_theorems():
        summary.theorem_reports.append(
            verify_theorem(rec, minimum_points=minimum_points, spot_points=spot_points, seed=seed)
        )
    return summary
