"""The benchmark's workloads: inputs made from the seed, one pass of work,
and the checks on each pass's output.

Every pass repeats the same work, so its wall time and its call counts can be
compared pass to pass.  Each workload clears the ``pipeline.stage`` cache at
the start of a pass, as a fresh ``bottsol`` process would start with it empty.

Why these workloads:

* ``corpus`` is what users run (``bottsol verify-all --format structured``)
  and mixes every module.
* ``fixtures-cold`` is stage building and table parsing with no sampling or
  solving, so a solver change should leave it flat.
* ``theorems-dense`` samples at three times the default counts, so
  ``decide_at_point`` and the spot checks dominate and stage building is a
  small share; a parser or stage change should leave it flat.
* ``custom`` sends new, larger algebras through ``check-custom``, which
  bypasses the stage cache and is the only caller of the custom-file parser
  and the Jacobi screen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

DEFAULT_SEED = 177147
# sha256 of `bottsol verify-all --format structured` at the default seed.
CORPUS_DIGEST = "ad98388ae167c071a3872bcc8f97ddb8085863d09bd2458b71b8f5c02d3ccc86"
FIXTURE_COUNTS = {"match": 165, "known_discrepancy": 31, "mismatch": 0}
THEOREM_COUNTS = {"confirmed": 31, "discrepancy": 14, "refuted": 0}
DENSE_SCALE = 3  # theorems-dense sample counts, as a multiple of the CLI defaults
CUSTOM_GROUPS = ("G1", "G2", "G3", "G4")  # G5-G7 need require_zero, which screen_jacobi ignores
CUSTOM_VARIANTS = 3  # reparametrisations per group
SUBSTITUTION_NAMES = ("alpha", "beta", "gamma", "delta")


@dataclass
class PassResult:
    seconds: float = 0.0
    items_ms: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)  # per item, checked after the passes
    points: int = 0  # admissible points decided (not-soliton samples plus spot checks)
    output: object = None
    error: str | None = None


def _timed(items_ms: list, func, *args, **kwargs):
    started = perf_counter()
    try:
        return func(*args, **kwargs)
    finally:
        items_ms.append((perf_counter() - started) * 1000.0)


def _status_failures(outcomes, bad: set, counts: dict) -> int:
    """Failed items of one pass: bad statuses, or all of them if the totals are off."""
    statuses = [getattr(rep, "status", None) for rep in outcomes]
    if Counter(s for s in statuses if s is not None) != Counter({k: v for k, v in counts.items() if v}):
        return len(outcomes)
    return sum(1 for s in statuses if s is None or s in bad)


class Workload:
    name = ""

    def load(self) -> None:
        """Registry loads the workload needs; part of set-up."""

    def prepare(self, seed: int, workdir: Path) -> None:
        """Make the inputs from the seed; not timed."""

    def run_pass(self, gauge) -> PassResult:
        """One pass; calls gauge.between_items() between verdicts."""
        raise NotImplementedError

    def failures(self, result: PassResult) -> int:
        """Number of failed items in one pass."""
        raise NotImplementedError

    def items_per_pass(self) -> int:
        raise NotImplementedError


class Corpus(Workload):
    """`verify-all --format structured --seed <seed>` through cli.main in-process."""

    name = "corpus"

    def load(self):
        from bottsol import registry

        self.fixtures = registry.load_fixtures()
        self.theorems = registry.load_theorems()
        registry.errata_signatures()

    def prepare(self, seed, workdir):
        from bottsol import verify

        self.seed = seed
        self.argv = ["verify-all", "--format", "structured", "--seed", str(seed)]
        self._current: PassResult | None = None
        # Item latencies are timed around the functions run_all looks up.
        for attr in ("verify_fixture", "verify_theorem"):
            setattr(verify, attr, self._item_timer(getattr(verify, attr)))

    def _item_timer(self, func):
        def timed(*args, **kwargs):
            report = _timed(self._current.items_ms, func, *args, **kwargs)
            self._current.outcomes.append(report)
            self._gauge.between_items()
            return report

        return timed

    def run_pass(self, gauge):
        from bottsol import cli

        result = self._current = PassResult()
        self._gauge = gauge
        stage_cache().cache_clear()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv)
        result.output = (code, buf.getvalue())
        result.points = sum(getattr(rep, "points_checked", 0) for rep in result.outcomes)
        return result

    def items_per_pass(self):
        return len(self.fixtures) + len(self.theorems)

    def failures(self, result):
        if result.error is not None or len(result.outcomes) != self.items_per_pass():
            return self.items_per_pass()
        code, text = result.output
        summary = json.loads(text)["summary"]
        expected = {**FIXTURE_COUNTS, **THEOREM_COUNTS}
        digest_ok = self.seed != DEFAULT_SEED or hashlib.sha256(text.encode()).hexdigest() == CORPUS_DIGEST
        if code != 2 or summary != expected or not digest_ok:
            return self.items_per_pass()
        return _status_failures(result.outcomes, {"mismatch", "refuted"}, expected)


class FixturesCold(Workload):
    """All fixtures in seeded order, from an empty stage cache each pass."""

    name = "fixtures-cold"

    def load(self):
        from bottsol import registry

        self.fixtures = registry.load_fixtures()
        self.errata = registry.errata_signatures()

    def prepare(self, seed, workdir):
        self.order = list(self.fixtures)
        random.Random(seed).shuffle(self.order)

    def run_pass(self, gauge):
        from bottsol import verify

        result = PassResult()
        stage_cache().cache_clear()
        for fix in self.order:
            result.outcomes.append(_timed(result.items_ms, verify.verify_fixture, fix, self.errata))
            gauge.between_items()
        return result

    def items_per_pass(self):
        return len(self.fixtures)

    def failures(self, result):
        if result.error is not None:
            return self.items_per_pass()
        return _status_failures(result.outcomes, {"mismatch"}, FIXTURE_COUNTS)


class TheoremsDense(Workload):
    """All theorem records in seeded order at DENSE_SCALE times the sample counts."""

    name = "theorems-dense"

    def load(self):
        from bottsol import registry

        self.theorems = registry.load_theorems()

    def prepare(self, seed, workdir):
        self.seed = seed
        self.order = list(self.theorems)
        random.Random(seed).shuffle(self.order)

    def run_pass(self, gauge):
        from bottsol import verify

        result = PassResult()
        stage_cache().cache_clear()
        for rec in self.order:
            report = _timed(result.items_ms, verify.verify_theorem, rec,
                            minimum_points=100 * DENSE_SCALE, spot_points=25 * DENSE_SCALE,
                            seed=self.seed)
            result.outcomes.append(report)
            result.points += report.points_checked
            gauge.between_items()
        return result

    def items_per_pass(self):
        return len(self.theorems)

    def failures(self, result):
        if result.error is not None:
            return self.items_per_pass()
        return _status_failures(result.outcomes, {"refuted"}, THEOREM_COUNTS)


def _random_poly(rng: random.Random):
    """c1*x*y + c2*z + c3 with random names and small nonzero rational coefficients.

    The shape is fixed so that every seed gives the parser and the pipeline
    about the same amount of work; only names and coefficients vary.
    """
    from bottsol.scalar import Poly

    def coeff():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))

    x, y, z = (Poly.var(rng.choice(SUBSTITUTION_NAMES)) for _ in range(3))
    return (x * y).scaled(coeff()) + z.scaled(coeff()) + Poly.const(coeff())


def _render(poly, text_of: dict) -> str:
    """Write `poly` with each parameter replaced by its substitute's text, unexpanded."""
    from bottsol.scalar import PARAMS

    terms = []
    for exponent, coeff in poly.terms.items():
        factors = [f"({coeff})"]
        for index, power in enumerate(exponent):
            if power:
                factors.append(f"({text_of[PARAMS[index]]})" + (f"^{power}" if power > 1 else ""))
        terms.append("*".join(factors))
    return " + ".join(terms)


@dataclass(frozen=True)
class CustomSpec:
    group: str
    eta: int | None
    substitution: tuple  # (parameter, Poly) pairs
    path: str


class Custom(Workload):
    """Seeded reparametrisations of G1-G4 through `check-custom`, in-process.

    Each catalog parameter is replaced by a random polynomial, and the file
    holds the bracket rows with the substitutes written out unexpanded.  The
    expected system comes from an independent route: the catalog system with
    the same substitution applied, then primitive()-normalised and deduplicated.
    """

    name = "custom"

    def prepare(self, seed, workdir):
        from bottsol import algebra

        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.specs = []
        for group in CUSTOM_GROUPS:
            for variant in range(CUSTOM_VARIANTS):
                eta = rng.choice((1, -1)) if group == "G4" else None
                spec = algebra.catalog(group, eta_sign=eta)
                substitution = tuple((name, _random_poly(rng)) for name in spec.parameters)
                text_of = {name: str(poly) for name, poly in substitution}
                lines = [f"# {group} eta={eta} " + ", ".join(f"{n} -> {t}" for n, t in text_of.items())]
                for key, (i, j) in (("[e1,e2]", (1, 2)), ("[e1,e3]", (1, 3)), ("[e2,e3]", (2, 3))):
                    comps = spec.bracket_basis(i, j).c
                    row = " + ".join(f"({_render(comp, text_of)})*e{k}"
                                     for k, comp in enumerate(comps, start=1) if not comp.is_zero())
                    lines.append(f"{key} = {row or '0'}")
                path = workdir / f"custom-{group}-{variant}.alg"
                path.write_text("\n".join(lines) + "\n", encoding="utf-8")
                self.specs.append(CustomSpec(group, eta, substitution, str(path)))
        self.items = [
            (spec, dist, perturbed)
            for spec in self.specs for dist in ("D", "D1", "D2") for perturbed in (False, True)
        ]
        self._expected: dict = {}

    def _argv(self, spec, dist, perturbed):
        argv = ["check-custom", "--spec-file", spec.path, "--distribution", dist,
                "--seed", str(self.seed), "--format", "structured"]
        return argv + ["--perturbed"] if perturbed else argv

    def run_pass(self, gauge):
        from bottsol import cli

        result = PassResult()
        for spec, dist, perturbed in self.items:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = _timed(result.items_ms, cli.main, self._argv(spec, dist, perturbed))
            except SystemExit as exc:  # argparse rejects a malformed command line this way
                code = exc.code
            result.outcomes.append((code, buf.getvalue()))
            gauge.between_items()
        return result

    def items_per_pass(self):
        return len(self.items)

    def expected(self, spec, dist, perturbed) -> list:
        key = (spec.path, dist, perturbed)
        if key not in self._expected:
            from bottsol import pipeline

            system = pipeline.stage(spec.group, dist, perturbed, spec.eta).system
            binds = dict(spec.substitution)
            seen = []
            for eq in system.equations:
                poly = eq.substitute(binds).as_poly()
                if not poly.is_zero() and str(poly.primitive()) not in seen:
                    seen.append(str(poly.primitive()))
            self._expected[key] = sorted(seen)
        return self._expected[key]

    def failures(self, result):
        if result.error is not None or len(result.outcomes) != len(self.items):
            return self.items_per_pass()
        failed = 0
        for (spec, dist, perturbed), (code, text) in zip(self.items, result.outcomes):
            ok = code == 0 and sorted(json.loads(text)["equations"]) == self.expected(spec, dist, perturbed)
            failed += not ok
        return failed


WORKLOADS = {cls.name: cls for cls in (Corpus, FixturesCold, TheoremsDense, Custom)}


def stage_cache():
    """The lru_cache object behind pipeline.stage, even when a wrapper replaced it."""
    from bottsol import pipeline

    stage = pipeline.stage
    while not hasattr(stage, "cache_clear"):
        stage = stage.__wrapped__
    return stage
