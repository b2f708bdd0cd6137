"""One workload in one fresh interpreter; prints one JSON line of raw results.

Modes:
  probe  set up (import bottsol, registry loads) and report the set-up time
  run    set up, then run untraced passes until --seconds have passed
  trace  the same, alternating untraced and traced passes, with set-up traced
  count  set up and run one pass with the kernel operation counters installed

Started by perfbench/run.py, which turns these raw results into metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
GAUGE_INTERVAL_S = 0.5  # about 5% of a run goes to the reference loop


def import_program():
    """Import the checkout's own bottsol from src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import bottsol.cli

    if not Path(bottsol.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bottsol was imported from {bottsol.cli.__file__}, not from {src}")


def timed_pass(workload, gauge):
    """Run one pass; its seconds exclude the reference loop's samples."""
    from workloads import PassResult

    paused = gauge.paused
    started = time.perf_counter()
    try:
        result = workload.run_pass(gauge)
    except Exception as exc:  # a crashed pass counts every item as failed
        result = PassResult(error=f"{type(exc).__name__}: {exc}")
        print(f"pass failed: {result.error}", file=sys.stderr)
    result.seconds = time.perf_counter() - started - (gauge.paused - paused)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", required=True, choices=("probe", "run", "trace", "count"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() in the parent just before it started this process")
    args = parser.parse_args(argv)

    import_program()
    import tracing
    import workloads
    from reference import Gauge

    workload = workloads.WORKLOADS[args.workload]()
    patches = tracing.Patches()
    tracer = tracing.Tracer()
    op_counts: Counter = Counter()
    if args.mode == "trace":
        tracer.install(patches)
        tracer.enabled = True
    elif args.mode == "count":
        tracing.install_op_counters(patches, op_counts)
    workload.load()
    tracer.enabled = False
    out: dict = {"setup_s": time.time() - args.spawned_at}
    gauge = Gauge(GAUGE_INTERVAL_S if args.mode == "run" else float("inf"))
    gauge.between_items()
    if args.mode == "trace":
        out["setup_trace"] = tracer.summarize(0)
    if args.mode == "probe":
        out["reference_s"] = gauge.samples
        print(json.dumps(out))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    setup_counts = Counter(op_counts)
    workload.prepare(args.seed, OUT_DIR / "inputs")
    op_counts.clear()  # making the inputs is not the program's work
    op_counts.update(setup_counts)
    passes: list = []  # (record, PassResult)
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = args.mode == "trace" and len(passes) % 2 == 1
        first_span = len(tracer.spans)
        tracer.counts.clear()
        tracer.stage_keys.clear()
        tracer.enabled = traced
        result = timed_pass(workload, gauge)
        tracer.enabled = False
        record = {"traced": traced}
        if traced:
            info = workloads.stage_cache().cache_info()
            record.update(tracer.summarize(first_span))
            record["counts"] = {**tracer.counts, "pipeline.stage.hits": info.hits,
                                "pipeline.stage.misses": info.misses,
                                "pipeline.stage.distinct": len(tracer.stage_keys)}
        passes.append((record, result))
        if args.mode == "count":
            break
        if time.perf_counter() >= deadline and (args.mode == "run" or len(passes) >= 2):
            break
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["reference_s"] = gauge.samples
    if args.mode == "trace":
        tracer.write(OUT_DIR / f"spans-{args.workload}.json")
    if args.mode == "count":
        out["op_counts"] = dict(op_counts)
    patches.restore()
    out["passes"] = [
        {**record, "seconds": result.seconds, "items_ms": result.items_ms, "points": result.points,
         "items": workload.items_per_pass(), "failed": workload.failures(result)}
        for record, result in passes
    ]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
