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
