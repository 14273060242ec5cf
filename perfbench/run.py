"""MINARET benchmark runner.

Usage (from the repository root)::

    python3 perfbench/run.py --workload editor-cold --seed 1 --seconds 12 --trace 0

Runs one workload (``editor-cold``, ``editor-warm``, ``conference`` or
``scale-search``) for ``--seconds`` seconds, checks every output against
an independent reference, and prints one JSON object as the last line of
standard output: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics listed in
``BENCHMARK.json``, their times at a reference host speed measured
alongside the work (``harness.HostSpeed``); with ``--trace 1`` they are
the per-layer metrics, taken from spans the benchmark records around
each layer's public functions.  The full record of the run (host facts, source digest, seeds,
layer self-time rollup) is written to
``perfbench/results/`` and printed on the line before the result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "perfbench" / "results"
#: The world every workload is built from, unless ``--world-seed`` says
#: otherwise.  ``--seed`` picks the workload's inputs.
DEFAULT_WORLD_SEED = 42


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--world-seed", type=int, default=DEFAULT_WORLD_SEED)
    parser.add_argument(
        "--toy", action="store_true", help="tiny inputs (the benchmark's own tests)"
    )
    parser.add_argument(
        "--corrupt",
        action="store_true",
        help="alter one output before checking (the checker self-test)",
    )
    return parser.parse_args(argv)


def stop_resource_tracker() -> None:
    """Stop the helper process a process pool leaves running, and wait for it.

    ``multiprocessing`` starts a resource tracker for the pool's
    semaphores and would otherwise leave it to exit after this process.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def pin_to_one_cpu() -> None:
    """Run this process, and the worker processes it starts, on one CPU.

    The host-speed probe then times the CPU the work ran on: on a shared
    host each CPU can be slowed by other programs at its own times.  No
    workload keeps more than one CPU busy (``workloads.Sizes``).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    pin_to_one_cpu()

    from perfbench import harness, tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"use one of {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    sizes = workloads.TOY if args.toy else workloads.FULL
    if args.trace:
        # The traced run reports no set-up time, so one set-up is enough.
        sizes = dataclasses.replace(sizes, setups=1)
    ctx = workloads.Context(
        workload=args.workload,
        seed=args.seed,
        world_seed=args.world_seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        sizes=sizes,
        corrupt=args.corrupt,
    )
    if ctx.trace:
        ctx.recorder = tracing.SpanRecorder(workloads.trace_targets())
        ctx.setup_recorder = tracing.SpanRecorder(workloads.trace_targets())
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        stop_resource_tracker()

    attempted = len(outcome.units)
    refused = sum(1 for unit in outcome.units if not unit.ok)
    failed = refused + outcome.wrong
    speed = outcome.speed
    latencies = [unit.latency_ms for unit in outcome.units if not unit.traced]
    busy = sum(unit.end - unit.start for unit in outcome.units)
    wall = {
        "setup_s": harness.median(outcome.setup_s),
        "latency_p50_ms": harness.median(latencies),
        "latency_p95_ms": harness.percentile(latencies, 0.95),
        "throughput_per_s": outcome.throughput_per_s,
    }
    # Times at the reference host speed: each unit of work divided by how
    # slow the host ran around it, the set-ups by how slow it ran over the
    # whole run, which follows them better (perfbench/README.md, Host speed).
    factors = [speed.factor(unit.start, unit.end) for unit in outcome.units]
    at_reference = [
        unit.latency_ms / f for unit, f in zip(outcome.units, factors) if not unit.traced
    ]
    busy_at_reference = sum((u.end - u.start) / f for u, f in zip(outcome.units, factors))
    end_to_end = {
        "setup_s": wall["setup_s"] / speed.factor(),
        "latency_p50_ms": harness.median(at_reference),
        "latency_p95_ms": harness.percentile(at_reference, 0.95),
        "throughput_per_s": outcome.throughput_per_s * harness.ratio(busy, busy_at_reference),
        "peak_rss_mb": outcome.peak_rss["total_mb"],
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "world_seed": args.world_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": dataclasses.asdict(sizes),
        "host": harness.host_facts(),
        "commit": harness.commit(),
        "source_sha256": harness.source_digest(),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "wrong_outputs": outcome.wrong,
        "latency_samples": len(latencies),
        "setup_samples_s": outcome.setup_s,
        "peak_rss": outcome.peak_rss,
        "end_to_end": end_to_end,
        "wall_clock": wall,
        "host_speed": {
            "factor": speed.factor(),
            "reference_ms": speed.REFERENCE_MS,
            "samples": len(speed.samples_ms),
            "sample_p50_ms": harness.median(speed.samples_ms),
            "probe_rss_mb": speed.rss_mb,
        },
        **outcome.extras,
    }
    if ctx.trace:
        metrics_spec = spec["per_layer"]
        values = workloads.layer_metrics(ctx, outcome)
        rollup = workloads.rollup(ctx, outcome)
        record["per_layer"] = values
        record["self_time_rollup_s"] = rollup
        record["traced_units"] = sum(1 for unit in outcome.units if unit.traced)
    else:
        metrics_spec = spec["end_to_end"]
        values = end_to_end
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if ctx.trace:
        ctx.recorder.write(RESULTS / f"{stem}-spans.jsonl.gz")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in metrics_spec
        },
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
