"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

They run the two quick workloads (fixtures-cold, custom) at short run
lengths, so the whole file takes about a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from reference import Gauge  # noqa: E402

EXACT = ("pipeline.stage.misses", "pipeline.stage.distinct", "curvature.riemann.calls",
         "soliton.build_system.calls", "soliton.decide_at_point.calls")


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 5) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return result


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_benchmark_json():
    declared = spec()
    e2e = result_of(bench("fixtures-cold", 0))["metrics"]
    assert {k: v["unit"] for k, v in e2e.items()} == {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layers = result_of(bench("fixtures-cold", 1))["metrics"]
    assert {k: v["unit"] for k, v in layers.items()} == {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert all(v["value"] > 0 for v in e2e.values())


@pytest.mark.parametrize("workload", ["fixtures-cold", "custom"])
def test_counts_repeat_exactly(workload):
    first = result_of(bench(workload, 1))["metrics"]
    second = result_of(bench(workload, 1))["metrics"]
    counts = [name for name, m in first.items() if m["unit"] == "count"]
    assert all(name in counts for name in EXACT)
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_op_counters_agree_with_cprofile():
    """The counting wrappers see exactly the calls cProfile sees."""
    script = """
import cProfile, fractions, json, sys, tempfile
from pathlib import Path
sys.path.insert(0, "perfbench")
import worker
worker.import_program()
import workloads
from reference import Gauge
from bottsol import scalar
wl = workloads.FixturesCold()
prof = cProfile.Profile()
prof.enable(); wl.load(); prof.disable()
wl.prepare(5, Path(tempfile.mkdtemp()))
prof.enable(); wl.run_pass(Gauge(float('inf'))); prof.disable()
prof.create_stats()
codes = {"scalar.Poly.__init__": scalar.Poly.__init__, "scalar.Fraction.__new__": fractions.Fraction.__new__,
         "scalar.poly_div_exact": scalar.poly_div_exact, "scalar.Poly.eval_at": scalar.Poly.eval_at,
         "scalar.RatFun.make": scalar.RatFun.make}
out = {}
for name, func in codes.items():
    code = func.__code__
    out[name + ".calls"] = prof.stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]
print(json.dumps(out))
"""
    profiled = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                              text=True, timeout=170, env={"PYTHONHASHSEED": "0", "PATH": ""})
    assert profiled.returncode == 0, profiled.stderr
    expected = json.loads(profiled.stdout.strip().splitlines()[-1])
    counted = result_of(bench("fixtures-cold", 1))["metrics"]
    assert expected["scalar.Poly.__init__.calls"] > 0
    assert {name: counted[name]["value"] for name in expected} == expected


def test_without_program_source_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("fixtures-cold", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_checks_catch_wrong_output(tmp_path):
    wl = workloads.Custom()
    wl.prepare(5, tmp_path)
    result = wl.run_pass(Gauge(float("inf")))
    assert wl.failures(result) == 0
    code, text = result.outcomes[0]
    payload = json.loads(text)
    payload["equations"] = payload["equations"][1:]
    result.outcomes[0] = (code, json.dumps(payload))
    result.outcomes[1] = (64, result.outcomes[1][1])
    assert wl.failures(result) == 2

    fixtures = workloads.FixturesCold()
    fixtures.load()
    fixtures.prepare(5, tmp_path)
    result = fixtures.run_pass(Gauge(float("inf")))
    assert fixtures.failures(result) == 0
    result.outcomes[0] = None
    assert fixtures.failures(result) == fixtures.items_per_pass()


def test_per_layer_names_are_unique_and_valid():
    names = [name for name, _ in run.per_layer_names()]
    assert len(names) == len(set(names)) <= 128
    assert all(len(name) <= 64 for name in names)
