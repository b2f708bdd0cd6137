import hashlib
import io
import json
import os
import sys
import time

import pytest

from bottsol import registry
from bottsol.cli import EX_USAGE, build_parser, main
from bottsol.pipeline import stage
from helpers import all_configurations

# sha256 of `bottsol verify-all --format structured --seed 177147`.
REPORT_DIGEST = "ad98388ae167c071a3872bcc8f97ddb8085863d09bd2458b71b8f5c02d3ccc86"
# sha256 of the text output of `bottsol verify-all` and of `bottsol verify-theorem`.
REPORT_TEXT_DIGEST = "c328c3f058041d4da26e98597c3eca354e6f5396744dd276d71d9e2490a36ceb"
THEOREM_TEXT_DIGEST = "1a815b0f32ada119776de402c4b84e59182f69b405c7a20a8ddf77d8bdc8c021"
# sha256 of `bottsol verify-theorem --id C3.5 --id 2.5 --id 5.16 --format structured`:
# both Einstein clause kinds, a no-soliton claim, and families with a discrepancy.
THEOREM_PATH_DIGEST = "67a955d7bb0f91203c4a242a8331cd7fc93d140206fce1de9d24e52703c1a550"
# sha256 of the structured output of every print form below, concatenated over
# all_configurations() (configuration-major, forms in PRINT_FORMS order).
CONSTRUCTION_DIGEST = "48c0c3e4d0dd701c9c2e324ede6bbe2d25c9321212345f37738d11ec71e0d9e2"
PRINT_FORMS = (
    ("print-connection", "--kind", "levi-civita"),
    ("print-connection", "--kind", "bott"),
    ("print-curvature",),
    ("print-ricci",),
    ("print-ricci", "--symmetrized"),
    ("print-system",),
)
# sha256 of the exit code and structured output of `check-custom` on the 72
# cases the benchmark's custom workload runs at seed 177147 (its 12 files, each
# under D, D1 and D2, plain and perturbed, in that order).
CUSTOM_CASES_DIGEST = "b3b48650f5d2cfd0917d0d08564d2cc1ac45ba30f89200be59807cc2660ff4e8"
# sha256 of the exit code and text output of `check-custom` on the same 72 cases.
CUSTOM_TEXT_DIGEST = "e10d5f82b1431befc7dbb4ea0ba09ab5777fa7627fa8c91209fa9e1aeb060c53"
# sha256 of `bottsol verify-fixture` and of `bottsol verify-fixture --format structured`.
FIXTURE_TEXT_DIGEST = "0082ecc4fe8e1896bc34f7041202a9e3fa99b10407f2047946c096dfdcd28d62"
FIXTURE_STRUCTURED_DIGEST = "d646095402e8b090c719198e30e89bef68da75d1e73681fca47f6f4501b27ab0"
# sha256 of `bottsol check-custom` text output for [e1,e2] = 2^7000*e1 under D.
LONG_COEFFICIENT_DIGEST = "2d41efd0af3c1149948de0fc6aa61367503fe4d033dac4889503e97cd4916a0e"
# sha256 of `bottsol list --format structured`.
LIST_DIGEST = "f5fc9989fc8cb1f98ce11010c5b9ec1e135ebb2300dbe30a788fa7f6ba04e5bb"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPrintCommands:
    def test_print_bott_table_rows(self, capsys):
        code, out, _ = run(capsys, "print-connection", "--group", "G1", "--distribution", "D")
        assert code == 0
        assert "nabla[e3]e1 = alpha*e1 + beta*e2" in out
        assert out.count("nabla[") == 9

    def test_print_system_g5(self, capsys):
        code, out, _ = run(capsys, "print-system", "--group", "G5", "--distribution", "D")
        assert code == 0
        body = [line for line in out.splitlines() if line.endswith("= 0")]
        assert len(body) == 3
        assert "mu = 0" in out

    def test_structured_output_is_json(self, capsys):
        code, out, _ = run(
            capsys, "print-system", "--group", "G5", "--distribution", "D",
            "--format", "structured",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["unknowns"] == ["mu1", "mu2", "mu3", "mu"]
        assert len(payload["equations"]) == 3

    def test_g4_requires_eta(self, capsys):
        code, _, err = run(capsys, "print-system", "--group", "G4")
        assert code == EX_USAGE and "eta" in err
        code, out, _ = run(capsys, "print-system", "--group", "G4", "--eta", "1")
        assert code == 0

    def test_construction_output_is_unchanged(self, capsys):
        digest = hashlib.sha256()
        for group, dist, perturbed, eta in all_configurations():
            selector = ["--group", group, "--distribution", dist, "--format", "structured"]
            selector += (["--perturbed"] if perturbed else []) + (["--eta", str(eta)] if eta else [])
            for command, *options in PRINT_FORMS:
                code, out, _ = run(capsys, command, *selector, *options)
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == CONSTRUCTION_DIGEST

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["print-system", "--group", "G9"])
        assert exc.value.code == EX_USAGE


class TestVerifyCommands:
    def test_verify_single_fixture(self, capsys):
        code, out, _ = run(capsys, "verify-fixture", "--id", "2.11")
        assert code == 0
        assert "[ok] 2.11" in out

    def test_verify_known_discrepancy_exit_two(self, capsys):
        code, out, _ = run(capsys, "verify-fixture", "--id", "3.22")
        assert code == 2
        assert "DISCREPANCY" in out

    def test_verify_fixture_timing_is_opt_in(self, capsys):
        args = ("verify-fixture", "--id", "2.11", "--id", "3.22", "--format", "structured")
        code, out, _ = run(capsys, *args)
        assert code == 2 and "elapsed_ms" not in out
        code, out, _ = run(capsys, *args, "--timing")
        assert code == 2
        fixtures = json.loads(out)["fixtures"]
        assert [f["id"] for f in fixtures] == ["2.11", "3.22"]
        assert all(f["elapsed_ms"] >= 0 for f in fixtures)
        code, text, _ = run(capsys, "verify-fixture", "--id", "2.11", "--timing")
        assert code == 0 and "elapsed_ms" not in text

    def test_repeated_options_do_not_leak_between_calls(self, capsys):
        """main reuses one parser; a second call's `--id` list holds only its own ids."""
        args = ("verify-fixture", "--format", "structured", "--id")
        code, out, _ = run(capsys, *args, "2.11")
        assert code == 0 and [f["id"] for f in json.loads(out)["fixtures"]] == ["2.11"]
        code, out, _ = run(capsys, *args, "3.22")
        assert code == 2 and [f["id"] for f in json.loads(out)["fixtures"]] == ["3.22"]
        assert build_parser() is build_parser()

    def test_verify_unknown_id(self, capsys):
        code, _, err = run(capsys, "verify-fixture", "--id", "99.99")
        assert code == EX_USAGE
        assert "unknown fixture ids: ['99.99']" in err

    def test_bad_data_file_exit_code(self, capsys, monkeypatch):
        """A data file the loaders refuse is an input error: exit 64 and the
        loader's message, with no traceback."""
        shipped = registry._data_text
        monkeypatch.setattr(registry, "_data_text", lambda relpath: (
            "[corollary C9.2 group=G1 dist=D kind=einstein]\nclause G1 not_einstein:\n"
            if relpath == "theorems.tab" else shipped(relpath)))
        code, _, err = run(capsys, "verify-all")
        assert code == EX_USAGE
        assert err == ("error: theorems line 1: corollary C9.2 names no group=; "
                       "each clause names its own\n")

    def test_stored_text_the_parser_refuses_exit_code(self, capsys, monkeypatch):
        """A stored expression that does not parse is refused while
        theorems.tab is read: exit 64, with its line, the parser and the text
        named, and no traceback."""
        shipped = registry._data_text
        monkeypatch.setattr(registry, "_data_text", lambda relpath: (
            shipped(relpath).replace("bind mu = 0", "bind mu = (alpha", 1)
            if relpath == "theorems.tab" else shipped(relpath)))
        code, _, err = run(capsys, "verify-all")
        assert code == EX_USAGE
        assert err == ("error: theorems line 15: parse_ratfun refuses stored text '(alpha': "
                       "unexpected end of expression\n")

    @pytest.mark.parametrize("command", ["verify-all", "verify-fixture"])
    def test_errata_entry_naming_no_fixture_exit_code(self, capsys, monkeypatch, command):
        """An errata entry whose fixture id names no fixture can never be
        reproduced, so the stale entry is an input error: exit 64, naming
        it, before any fixture is compared."""
        shipped = registry._data_text
        monkeypatch.setattr(registry, "_data_text", lambda relpath: (
            shipped(relpath).replace("fixture 2.20 1,3,2", "fixture 2.99 1,3,2", 1)
            if relpath == "errata.tab" else shipped(relpath)))
        code, out, err = run(capsys, command, "--format", "structured")
        assert code == EX_USAGE and out == ""
        assert err == "error: errata entry 2.99 1,3,2 names no fixture\n"
        code, _, err = run(capsys, "verify-fixture", "--id", "2.20")
        assert (code, err) == (EX_USAGE, "error: errata entry 2.99 1,3,2 names no fixture\n")

    def test_verify_theorem_confirmed(self, capsys):
        code, out, _ = run(capsys, "verify-theorem", "--id", "2.5", "--samples", "100")
        assert code == 0
        assert "[confirmed] 2.5" in out

    def test_verify_theorem_discrepancy(self, capsys):
        code, out, _ = run(capsys, "verify-theorem", "--id", "7.2")
        assert code == 2
        assert "residual" in out

    def test_reports_byte_identical_for_same_seed(self, capsys):
        args = ("verify-theorem", "--id", "3.4", "--seed", "12345", "--format", "structured")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert out1 == out2 and code1 == code2 == 0
        code3, out3, _ = run(capsys, *args, "--timing")
        assert "elapsed_ms" in out3 and "elapsed_ms" not in out1

    def test_default_report_is_unchanged(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--format", "structured", "--seed", "177147")
        assert code == 2
        assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGEST

    @pytest.mark.parametrize("command, expected", [
        ("verify-all", REPORT_TEXT_DIGEST),
        ("verify-theorem", THEOREM_TEXT_DIGEST),
    ])
    def test_text_report_is_unchanged(self, capsys, command, expected):
        code, out, _ = run(capsys, command)
        assert code == 2
        assert hashlib.sha256(out.encode()).hexdigest() == expected

    def test_timing_adds_elapsed_ms_to_fixtures_and_theorems_only(self, capsys):
        args = ("verify-all", "--format", "structured", "--samples", "3", "--spot-samples", "1")
        _, plain, _ = run(capsys, *args)
        started = time.perf_counter()
        _, timed, _ = run(capsys, *args, "--timing")
        wall_ms = (time.perf_counter() - started) * 1000.0
        plain, timed = json.loads(plain), json.loads(timed)
        for section in ("fixtures", "theorems"):
            for entry in timed[section]:
                elapsed_ms = entry.pop("elapsed_ms")
                assert isinstance(elapsed_ms, float) and 0 <= elapsed_ms <= wall_ms
                for family in entry.get("families", ()):
                    assert "elapsed_ms" not in family
        assert timed == plain

    @pytest.mark.parametrize("options, expected", [
        ((), FIXTURE_TEXT_DIGEST),
        (("--format", "structured"), FIXTURE_STRUCTURED_DIGEST),
    ])
    def test_fixture_report_is_unchanged(self, capsys, options, expected):
        code, out, _ = run(capsys, "verify-fixture", *options)
        assert code == 2
        assert hashlib.sha256(out.encode()).hexdigest() == expected

    def test_theorem_path_report_is_unchanged(self, capsys):
        code, out, _ = run(capsys, "verify-theorem", "--id", "C3.5", "--id", "2.5",
                           "--id", "5.16", "--format", "structured")
        assert code == 2
        assert hashlib.sha256(out.encode()).hexdigest() == THEOREM_PATH_DIGEST

    def test_verify_unknown_theorem_id(self, capsys):
        code, _, err = run(capsys, "verify-theorem", "--id", "2.5", "--id", "99.99")
        assert code == EX_USAGE
        assert "unknown theorem ids: ['99.99']" in err

    @pytest.mark.parametrize("command", ["verify-theorem", "verify-all"])
    @pytest.mark.parametrize("option", ["--samples", "--spot-samples"])
    def test_negative_sample_count_is_usage_error(self, capsys, command, option):
        with pytest.raises(SystemExit) as exc:
            main([command, option, "-3"])
        assert exc.value.code == EX_USAGE
        assert f"argument {option}: count must not be negative: '-3'" in capsys.readouterr().err

    def test_zero_sample_counts_are_accepted(self, capsys):
        code, out, _ = run(capsys, "verify-theorem", "--id", "3.4",
                           "--spot-samples", "0", "--samples", "0")
        assert code == 0
        assert "family 1: confirmed (0 instantiations)" in out


class TestCheckCustom:
    GOOD = "[e1,e2] = gamma*e3\n[e1,e3] = 0\n[e2,e3] = 0\nrequire_nonzero gamma\n"
    BAD = "[e1,e2] = e3\n[e1,e3] = 0\n[e2,e3] = e2\n"

    def test_accepts_valid_algebra(self, tmp_path, capsys):
        path = tmp_path / "heis.alg"
        path.write_text(self.GOOD)
        code, out, _ = run(capsys, "check-custom", "--spec-file", str(path))
        assert code == 0
        assert "accepted" in out

    def test_rejects_non_lie_bracket(self, tmp_path, capsys):
        path = tmp_path / "bad.alg"
        path.write_text(self.BAD)
        code, _, err = run(capsys, "check-custom", "--spec-file", str(path))
        assert code == EX_USAGE and "Jacobi" in err
        # [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = [e3,e3] + [e2,e1] + 0 = -e3
        assert "cyclic sum is -e3" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check-custom", "--spec-file", "/nonexistent.alg")
        assert code == EX_USAGE

    def test_non_utf8_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.alg"
        path.write_bytes(b"\xff\xfe[e1,e2] = e3\n")
        code, out, err = run(capsys, "check-custom", "--spec-file", str(path))
        assert code == EX_USAGE
        assert err.startswith(f"cannot read {path}: ") and "Traceback" not in err

    @pytest.mark.parametrize("row", ["(1/0)*e3", "(" * 3000 + "e3" + ")" * 3000,
                                     "(alpha+beta+gamma+1)^60*e3", "2^20000*e1"])
    def test_hostile_row_is_input_error(self, tmp_path, capsys, row):
        path = tmp_path / "hostile.alg"
        path.write_text(f"[e1,e2] = {row}\n[e1,e3] = 0\n[e2,e3] = 0\n")
        code, _, err = run(capsys, "check-custom", "--spec-file", str(path))
        assert code == EX_USAGE and "invalid algebra: line 1" in err

    @pytest.mark.parametrize("row, message", [
        ("2%e3", "unexpected character '%' in ' 2%e3'"),
        ("e3 +", "unexpected end of expression"),
        ("e3)", "trailing input at token ')'"),
    ])
    def test_malformed_row_is_input_error(self, tmp_path, capsys, row, message):
        path = tmp_path / "malformed.alg"
        path.write_text(f"[e1,e3] = 0\n[e2,e3] = 0\n[e1,e2] = {row}\n")
        code, out, err = run(capsys, "check-custom", "--spec-file", str(path))
        assert code == EX_USAGE and out == ""
        assert err == f"invalid algebra: line 3: {message}\n"

    @pytest.mark.parametrize("line", ["require_nonzerogamma", "require_zeroalpha-alpha"])
    def test_keyword_glued_to_its_argument_is_input_error(self, tmp_path, capsys, line):
        path = tmp_path / "glued.alg"
        path.write_text(self.GOOD.replace("require_nonzero gamma", line))
        code, out, err = run(capsys, "check-custom", "--spec-file", str(path))
        assert code == EX_USAGE and out == ""
        assert err == "invalid algebra: line 4: expected '[ei,ej] = <vector>'\n"

    @pytest.mark.parametrize("spelling", [
        GOOD.replace("require_nonzero gamma", "require_nonzero\tgamma").encode(),
        b"\xef\xbb\xbf" + GOOD.encode(),
    ], ids=["tab after keyword", "byte-order mark"])
    def test_same_table_prints_the_same_output(self, tmp_path, capsys, spelling):
        path = tmp_path / "heis.alg"
        path.write_text(self.GOOD)
        expected = run(capsys, "check-custom", "--spec-file", str(path))
        path.write_bytes(spelling)
        assert run(capsys, "check-custom", "--spec-file", str(path)) == expected
        assert expected[0] == 0

    def test_reserved_name_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "reserved.alg"
        path.write_text("[e1,e2] = a0*e1\n[e1,e3] = 0\n[e2,e3] = 0\n")
        code, out, err = run(capsys, "check-custom", "--spec-file", str(path), "--perturbed")
        assert code == EX_USAGE and out == ""
        assert err.startswith("invalid algebra: line 1: reserved name a0: ")

    def test_long_coefficients(self, tmp_path, capsys):
        # 2^8000 parses (2,409 digits), but the curvature squares it past the
        # 4,300-digit limit on printing an integer; 2^7000 squared stays under.
        path = tmp_path / "long.alg"
        path.write_text("[e1,e2] = 2^8000*e1\n[e1,e3] = 0\n[e2,e3] = 0\n")
        code, out, err = run(capsys, "check-custom", "--spec-file", str(path))
        assert code == EX_USAGE and out == ""
        assert err.startswith("invalid algebra: Exceeds the limit")
        path.write_text("[e1,e2] = 2^7000*e1\n[e1,e3] = 0\n[e2,e3] = 0\n")
        code, out, _ = run(capsys, "check-custom", "--spec-file", str(path))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == LONG_COEFFICIENT_DIGEST

    def test_oversized_table_is_input_error(self, tmp_path, capsys):
        # Each row is under the parser bound and the three pass the Jacobi
        # screen, but their 17,550 structure-constant terms would make the
        # curvature products run without limit.  The first row's 2925 terms
        # fill two entries of c, and 5850 squared already passes the bound.
        power = "(alpha+beta+gamma+1)^24"
        path = tmp_path / "large.alg"
        path.write_text(f"[e1,e2] = {power}*e3\n[e1,e3] = {power}*e2\n[e2,e3] = {power}*e1\n")
        started = time.perf_counter()
        code, _, err = run(capsys, "check-custom", "--spec-file", str(path))
        assert code == EX_USAGE
        assert "line 1: structure constants too large: 5850 terms so far" in err
        assert time.perf_counter() - started < 15

    def test_benchmark_cases_are_unchanged(self, tmp_path, capsys):
        from perfbench import workloads

        workload = workloads.Custom()
        workload.prepare(177147, tmp_path)
        digest = hashlib.sha256()
        cases = 0
        for spec in workload.specs:
            for dist in ("D", "D1", "D2"):
                for perturbed in (False, True):
                    argv = ["check-custom", "--spec-file", spec.path, "--distribution", dist,
                            "--seed", "177147", "--format", "structured"]
                    code, out, _ = run(capsys, *argv, *(["--perturbed"] if perturbed else []))
                    digest.update(f"{code}\n{out}".encode())
                    cases += 1
        assert cases == 72
        assert digest.hexdigest() == CUSTOM_CASES_DIGEST

    def test_benchmark_cases_print_unchanged_text(self, tmp_path, capsys):
        """The text body joins the equations' strings the structured output
        holds; every printed system reads as before."""
        from perfbench import workloads

        workload = workloads.Custom()
        workload.prepare(177147, tmp_path)
        digest = hashlib.sha256()
        for spec in workload.specs:
            for dist in ("D", "D1", "D2"):
                for perturbed in (False, True):
                    argv = ["check-custom", "--spec-file", spec.path, "--distribution", dist,
                            "--seed", "177147"] + (["--perturbed"] if perturbed else [])
                    code, out, _ = run(capsys, *argv)
                    digest.update(f"{code}\n{out}".encode())
        assert digest.hexdigest() == CUSTOM_TEXT_DIGEST

    def test_catalog_rows_give_catalog_systems(self, tmp_path, capsys):
        path = tmp_path / "g1.alg"
        path.write_text(
            "[e1,e2] = alpha*e1 - beta*e3\n"
            "[e1,e3] = -alpha*e1 - beta*e2\n"
            "[e2,e3] = beta*e1 + alpha*e2 + alpha*e3\n"
            "require_nonzero alpha\n"
        )
        for dist in ("D", "D1", "D2"):
            for perturbed in (False, True):
                argv = ["check-custom", "--spec-file", str(path), "--distribution", dist,
                        "--format", "structured"] + (["--perturbed"] if perturbed else [])
                code, out, _ = run(capsys, *argv)
                assert code == 0
                expected = [str(eq) for eq in stage("G1", dist, perturbed).system.equations]
                assert json.loads(out)["equations"] == expected, (dist, perturbed)


def test_list_command(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "G7" in out and "196 reference tables" in out


def test_list_output_is_unchanged(capsys):
    code, out, _ = run(capsys, "list", "--format", "structured")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LIST_DIGEST


def test_closed_stdout_exits_141(tmp_path, monkeypatch):
    """A reader that quits early, as `bottsol verify-fixture | head -1` does,
    ends the run with 128 + SIGPIPE, not the exit code of a mismatch."""

    class ClosedPipe(io.TextIOBase):
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fd

    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        assert main(["list"]) == 141
    finally:
        os.close(fd)
