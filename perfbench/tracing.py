"""Spans and call counters installed from outside the program.

The benchmark wraps the public functions of each bottsol module.  Several
modules import their callees by name (``verify`` holds its own reference to
``soliton.decide_at_point``, ``soliton`` to ``curvature.riemann``), so a
wrapper is written onto every module attribute that holds the original
function object, which is the attribute each caller actually looks up.

Spans (name, start, end, parent) stay in memory while the passes run and are
written out once at the end.  A layer's self time is its span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# (object path inside bottsol, end-to-end metric and workloads the layer is
# predicted to move).  The path is the metric prefix: every entry yields
# <path>.calls and <path>.self_s.
SPANNED = (
    ("registry.load_fixtures", "setup_s: corpus, fixtures-cold, theorems-dense"),
    ("registry.load_theorems", "setup_s: corpus, theorems-dense"),
    ("registry.errata_signatures", "setup_s: corpus, fixtures-cold"),
    ("registry.Fixture.connection_table", "run_s: fixtures-cold"),
    ("registry.Fixture.curvature_table", "run_s: fixtures-cold"),
    ("registry.Fixture.bilinear_table", "run_s: fixtures-cold"),
    ("registry.Fixture.delta_table", "run_s: fixtures-cold"),
    ("registry.Fixture.system_equations", "run_s: fixtures-cold"),
    ("scalar.parse_poly", "run_s: custom, fixtures-cold"),
    ("scalar.parse_vector", "run_s: custom, fixtures-cold"),
    ("scalar.parse_ratfun", "run_s: custom, fixtures-cold"),
    ("algebra.catalog", "item_ms: custom"),
    ("algebra.parse_custom_file", "item_ms: custom"),
    ("algebra.screen_jacobi", "item_ms: custom"),
    ("connection.levi_civita", "run_s: fixtures-cold, custom"),
    ("connection.bott", "run_s: fixtures-cold, custom"),
    ("connection.perturb", "run_s: fixtures-cold, custom"),
    ("curvature.riemann", "run_s: fixtures-cold, custom"),
    ("curvature.ricci", "run_s: fixtures-cold, custom"),
    ("curvature.symmetrize", "run_s: fixtures-cold, custom"),
    ("curvature.curvature_delta", "run_s: fixtures-cold"),
    ("soliton.lie_derivative_form", "run_s: fixtures-cold, custom"),
    ("soliton.build_system", "run_s: fixtures-cold, custom"),
    ("soliton.check_family", "points_per_s: theorems-dense, corpus"),
    ("soliton.sample_plan", "points_per_s: theorems-dense, corpus"),
    ("soliton.decide_at_point", "points_per_s: theorems-dense, corpus"),
    ("soliton.check_point_admissible", "points_per_s: theorems-dense, corpus"),
    ("pipeline.stage", "run_s: corpus, fixtures-cold; none on custom"),
    ("verify.verify_fixture", "item_ms: corpus"),
    ("verify.verify_theorem", "item_ms: corpus, theorems-dense"),
    ("verify._spot_check_family", "item_ms: corpus, theorems-dense"),
    ("cli.main", "run_s: corpus"),
)

# Kernel operations counted in a separate pass: <prefix>.calls, predicted to
# move run_s on every workload.
KERNEL_OPS = (
    ("scalar.Poly.__init__", "scalar.Poly.__init__"),
    ("scalar.Fraction.__new__", "fractions.Fraction.__new__"),
    ("scalar.poly_div_exact", "scalar.poly_div_exact"),
    ("scalar.Poly.eval_at", "scalar.Poly.eval_at"),
    ("scalar.RatFun.make", "scalar.RatFun.make"),
)


def _resolve(path: str):
    """Return (owner, attribute name, function) for a dotted object path."""
    head, *rest = path.split(".")
    owner = sys.modules["fractions"] if head == "fractions" else sys.modules[f"bottsol.{head}"]
    for part in rest[:-1]:
        owner = getattr(owner, part)
    return owner, rest[-1], owner.__dict__[rest[-1]]


class Patches:
    """Replace a function everywhere bottsol looks it up; undo on restore()."""

    def __init__(self):
        self._saved = []

    def replace(self, path: str, make_wrapper) -> None:
        owner, attr, raw = _resolve(path)
        func = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapper = make_wrapper(func)
        if isinstance(owner, type):
            new = staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper
            self._set(owner, attr, new)
            return
        found = False
        for name, module in list(sys.modules.items()):
            if name == "bottsol" or name.startswith("bottsol."):
                for key, value in list(vars(module).items()):
                    if value is func:
                        self._set(module, key, wrapper)
                        found = True
        if not found:
            raise LookupError(f"no bottsol module refers to {path}")

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


class Tracer:
    """Records one span per wrapped call while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.names: list = []
        self.spans: list = []  # [name index, start, end, parent span index or -1]
        self.stack: list = []
        self.counts: Counter = Counter()
        self.stage_keys: set = set()

    def install(self, patches: Patches) -> None:
        for path, _ in SPANNED:
            patches.replace(path, functools.partial(self._wrap, path))
        # Attempts inside _spot_check_family are its calls to _solve_equalities;
        # they are counted, not spanned.
        patches.replace("soliton._solve_equalities", self._count_spot_attempts)

    def innermost(self) -> str | None:
        return self.names[self.spans[self.stack[-1]][0]] if self.stack else None

    def _wrap(self, prefix: str, func):
        index = len(self.names)
        self.names.append(prefix)
        tracer = self
        counts = self.counts

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            if prefix == "pipeline.stage":
                tracer.stage_keys.add(_stage_key(*args, **kwargs))
            elif prefix == "soliton.check_point_admissible" and tracer.innermost() == "soliton.sample_plan":
                counts["soliton.sample_plan.admissible_checks"] += 1
            span = [index, perf_counter(), 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer.stack.pop()
            if prefix == "soliton.sample_plan":
                counts["soliton.sample_plan.accepted"] += len(result)
            elif prefix == "verify._spot_check_family":
                counts["verify._spot_check_family.points"] += result
            return result

        return traced

    def _count_spot_attempts(self, func):
        tracer = self

        @functools.wraps(func)
        def counted(*args, **kwargs):
            if tracer.enabled and tracer.innermost() == "verify._spot_check_family":
                tracer.counts["verify._spot_check_family.attempts"] += 1
            return func(*args, **kwargs)

        return counted

    def summarize(self, first_span: int) -> dict:
        """Calls and self time per prefix over spans[first_span:]."""
        child_time = [0.0] * (len(self.spans) - first_span)
        for _, start, end, parent in self.spans[first_span:]:
            if parent >= first_span:
                child_time[parent - first_span] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for offset, (name, start, end, _) in enumerate(self.spans[first_span:]):
            calls[self.names[name]] += 1
            self_s[self.names[name]] += (end - start) - child_time[offset]
        return {"calls": dict(calls), "self_s": dict(self_s)}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, handle)


def _stage_key(group, dist_name, perturbed=False, eta_sign=None):
    """The configuration a pipeline.stage call builds, however it was passed."""
    return (group, dist_name, bool(perturbed), eta_sign)


def install_op_counters(patches: Patches, counts: Counter) -> None:
    """Count calls of each kernel operation into ``counts``."""

    def counter(prefix):
        def make(func):
            @functools.wraps(func)
            def counted(*args, **kwargs):
                counts[prefix] += 1
                return func(*args, **kwargs)

            return counted

        return make

    for prefix, path in KERNEL_OPS:
        patches.replace(path, counter(prefix))
