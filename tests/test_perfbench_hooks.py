"""The benchmark in perfbench/ wraps bottsol functions by their dotted paths.
Renaming or deleting one breaks the benchmark, so every path must resolve."""

import importlib

import pytest

from perfbench import tracing

PATHS = ([path for path, _ in tracing.SPANNED] + [path for _, path in tracing.KERNEL_OPS]
         + ["soliton._solve_equalities"])


@pytest.mark.parametrize("path", PATHS)
def test_benchmark_hook_resolves(path):
    head = path.split(".", 1)[0]
    if head != "fractions":
        importlib.import_module(f"bottsol.{head}")
    _, _, func = tracing._resolve(path)
    assert callable(getattr(func, "__func__", func))


def test_spot_check_attempts_reach_the_counted_hook():
    """The benchmark counts spot-check attempts as calls of _solve_equalities
    through the module attributes it patches; every checked point is one."""
    from bottsol import pipeline, registry, soliton, verify

    rec = next(r for r in registry.load_theorems() if r.id == "3.4")
    system = pipeline.stage(rec.group, rec.distribution, rec.perturbed).system
    family = verify._family_from_record(rec.claims[0].families[0], None, completed=False)
    assert soliton.check_family(system, family).satisfied
    calls = []

    def make_counter(func):
        def counted(*args, **kwargs):
            calls.append(args)
            return func(*args, **kwargs)

        return counted

    patches = tracing.Patches()
    patches.replace("soliton._solve_equalities", make_counter)
    try:
        points = verify._spot_check_family(system, family, 10, seed=177147)
    finally:
        patches.restore()
    assert points == 10
    assert len(calls) >= points


def test_shared_loader_keeps_per_name_attribution():
    """Fixture.curvature_table is the same function as connection_table; the
    benchmark wraps each name on its own, so each wrapper must see only the
    loads made under its name, and restoring must leave them one function."""
    from bottsol import registry, verify

    fixtures = {fix.id: fix for fix in registry.load_fixtures()}
    curvature, bott = fixtures["3.4"], fixtures["2.11"]
    assert (curvature.kind, bott.kind) == ("curvature", "bott")
    seen = {"connection_table": [], "curvature_table": []}

    def recorder(name):
        def make(func):
            def recorded(self, *args, **kwargs):
                seen[name].append(self.id)
                return func(self, *args, **kwargs)

            return recorded

        return make

    patches = tracing.Patches()
    for name in seen:
        patches.replace(f"registry.Fixture.{name}", recorder(name))
    try:
        assert verify.verify_fixture(curvature).status == verify.MATCH
        assert verify.verify_fixture(bott).status == verify.MATCH
    finally:
        patches.restore()
    assert seen == {"connection_table": ["2.11"], "curvature_table": ["3.4"]}
    assert registry.Fixture.curvature_table is registry.Fixture.connection_table


def test_stored_tables_parse_without_normalising():
    """No stored table has a non-constant denominator, so loading every table
    through its fixture loader at each G4 sign must keep to the polynomial
    fast path: RatFun.make and poly_div_exact are never called.  The parse
    memo is emptied first, so every table is parsed here."""
    from collections import Counter

    from bottsol import pipeline, registry

    fixtures = registry.load_fixtures()
    pipeline.stage.cache_clear()
    counts: Counter = Counter()
    patches = tracing.Patches()
    tracing.install_op_counters(patches, counts)
    try:
        for fix in fixtures:
            loader = registry.TABLE_KINDS[fix.kind].loader
            for eta in pipeline.eta_signs(fix.group):
                getattr(fix, loader)(eta=eta)
    finally:
        patches.restore()
    assert counts["scalar.Fraction.__new__"] > 0  # the counters were live
    assert counts["scalar.RatFun.make"] == counts["scalar.poly_div_exact"] == 0


def test_parser_spans_see_each_distinct_stored_row_once():
    """The loaders parse through the module attribute the benchmark wraps:
    after a clear, a counter on scalar.parse_vector sees one call per
    distinct (text, G4 sign) among the vector rows, and none on a second
    load of every table."""
    from bottsol import pipeline, registry

    fixtures = registry.load_fixtures()
    loads = [(fix, eta) for fix in fixtures for eta in pipeline.eta_signs(fix.group)]
    distinct = {(expr, eta) for fix, eta in loads if registry.TABLE_KINDS[fix.kind].vector
                for _, expr in fix.rows}
    calls = []

    def make_counter(func):
        def counted(text, eta=None):
            calls.append((text, eta))
            return func(text, eta=eta)

        return counted

    pipeline.stage.cache_clear()
    patches = tracing.Patches()
    patches.replace("scalar.parse_vector", make_counter)
    try:
        for _ in range(2):
            for fix, eta in loads:
                getattr(fix, registry.TABLE_KINDS[fix.kind].loader)(eta=eta)
    finally:
        patches.restore()
    assert len(calls) == len(set(calls)) and set(calls) == distinct
