import pytest

from bottsol import registry
from bottsol.registry import Claim, Fixture, FamilyRecord, TheoremRecord
from bottsol.verify import (
    CONFIRMED,
    DISCREPANCY,
    KNOWN_DISCREPANCY,
    MATCH,
    MISMATCH,
    REFUTED,
    verify_fixture,
    verify_theorem,
)


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
