"""bottsol benchmark: one workload per call, metrics as one JSON line.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Each workload runs in fresh single-threaded interpreters (perfbench/worker.py)
that import bottsol from this checkout's src/.  With --trace 0 the run is
untraced and reports the end-to-end metrics, scaled to a reference machine
speed (see reference.py); with --trace 1 it reports the per-layer metrics
from a traced run plus a separate pass that counts kernel operations.  The
last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where attempted/failed count verdicts: one fixture, one theorem record or one
check-custom call.  The exit code is 0 whenever the workers ran, and not 0
(with no result line) when they could not, e.g. without the program's source.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from reference import NOMINAL_S  # noqa: E402
from tracing import KERNEL_OPS, SPANNED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 17  # extra fresh interpreters that only set up; their median is setup_s
TIME_BUDGET_S = 170.0  # every run ends well inside the 180 s a run may take

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms.p50", "ms"),
    ("item_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
)

# Counted by the trace worker in its first traced pass.
PASS_COUNTS = (
    "pipeline.stage.hits",
    "pipeline.stage.misses",
    "pipeline.stage.distinct",
    "soliton.sample_plan.admissible_checks",
    "soliton.sample_plan.accepted",
    "verify._spot_check_family.attempts",
    "verify._spot_check_family.points",
)

DERIVED = (
    ("soliton.sample_plan.accept_ratio", "ratio"),
    ("verify._spot_check_family.points_per_attempt", "ratio"),
    ("points_checked", "count"),
    ("points_per_s", "1/s"),
    ("trace.untraced_run_s", "s"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
)


def per_layer_names() -> list:
    names = []
    for prefix, _ in SPANNED:
        names += [(f"{prefix}.calls", "count"), (f"{prefix}.self_s", "s")]
    names += [(f"{prefix}.calls", "count") for prefix, _ in KERNEL_OPS]
    names += [(name, "count") for name in PASS_COUNTS]
    return names + list(DERIVED)


class WorkerFailed(Exception):
    pass


def start_worker(mode: str, args, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed("time budget exhausted")
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(time.time())], env=env,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise WorkerFailed(f"{mode} worker timed out") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measured_end_to_end(args, deadline: float):
    """Wall-clock values as measured, and the reference-loop scale of each part."""
    probes = [start_worker("probe", args, deadline) for _ in range(SETUP_PROBES)]
    raw = start_worker("run", args, deadline)
    setup = [p["setup_s"] for p in probes] + [raw["setup_s"]]
    passes = raw["passes"]
    items_ms = [ms for p in passes for ms in p["items_ms"]]
    total_s = sum(p["seconds"] for p in passes)
    values = {
        "setup_s": statistics.median(setup),
        "run_s": total_s / len(passes),
        "items_per_s": sum(p["items"] for p in passes) / total_s,
        "item_ms.p50": statistics.median(items_ms),
        "item_ms.p90": statistics.quantiles(items_ms, n=10)[-1],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    scale = {
        "setup": NOMINAL_S / statistics.fmean(r for p in probes for r in p["reference_s"]),
        "run": NOMINAL_S / statistics.fmean(raw["reference_s"]),
    }
    notes = [f"{len(passes)} passes, {len(items_ms)} item latencies, {len(setup)} set-ups"]
    return values, scale, passes, notes


def end_to_end(args, deadline: float):
    values, scale, passes, notes = measured_end_to_end(args, deadline)
    notes.append("measured " + ", ".join(f"{k}={v:.6g}" for k, v in values.items())
                 + f"; reference scale set-up {scale['setup']:.4f}, run {scale['run']:.4f}")
    scaled = {
        "setup_s": values["setup_s"] * scale["setup"],
        "run_s": values["run_s"] * scale["run"],
        "items_per_s": values["items_per_s"] / scale["run"],
        "item_ms.p50": values["item_ms.p50"] * scale["run"],
        "item_ms.p90": values["item_ms.p90"] * scale["run"],
        "peak_rss_mb": values["peak_rss_mb"],
    }
    return scaled, dict(END_TO_END), passes, notes


def per_layer(args, deadline: float):
    raw = start_worker("trace", args, deadline)
    counted = start_worker("count", args, deadline)
    traced = [p for p in raw["passes"] if p["traced"]]
    untraced = [p for p in raw["passes"] if not p["traced"]]
    first = traced[0]  # every pass does the same work, so its counts repeat exactly
    setup = raw["setup_trace"]
    values = {}
    for prefix, _ in SPANNED:
        values[f"{prefix}.calls"] = setup["calls"].get(prefix, 0) + first["calls"].get(prefix, 0)
        values[f"{prefix}.self_s"] = setup["self_s"].get(prefix, 0.0) + statistics.median(
            p["self_s"].get(prefix, 0.0) for p in traced)
    for prefix, _ in KERNEL_OPS:
        values[f"{prefix}.calls"] = counted["op_counts"].get(prefix, 0)
    for name in PASS_COUNTS:
        values[name] = first["counts"].get(name, 0)
    values["soliton.sample_plan.accept_ratio"] = _ratio(
        values["soliton.sample_plan.accepted"], values["soliton.sample_plan.admissible_checks"])
    values["verify._spot_check_family.points_per_attempt"] = _ratio(
        values["verify._spot_check_family.points"], values["verify._spot_check_family.attempts"])
    untraced_s = statistics.median(p["seconds"] for p in untraced)
    traced_s = statistics.median(p["seconds"] for p in traced)
    values["points_checked"] = untraced[0]["points"]
    values["points_per_s"] = untraced[0]["points"] / untraced_s
    values["trace.untraced_run_s"] = untraced_s
    values["trace.run_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    notes = [f"{len(untraced)} untraced and {len(traced)} traced passes, plus 1 counted pass",
             f"spans written to {BENCH_DIR.name}/out/spans-{args.workload}.json"]
    return values, dict(per_layer_names()), raw["passes"] + counted["passes"], notes


def _ratio(part: int, base: int) -> float:
    return part / base if base else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_BUDGET_S
    try:
        values, units, passes, notes = (per_layer if args.trace else end_to_end)(args, deadline)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: " + "; ".join(notes))
    for name, value in values.items():
        print(f"  {name:<48} {value:>16.6f} {units[name]}")
    print(f"  verdicts attempted {attempted}, failed {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
