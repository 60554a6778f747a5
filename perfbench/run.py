#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload catalog-generate --seed 1 \\
        --seconds 15 --trace 0

Each invocation is one fresh process running one workload: set-up
(repeated ``SETUP_REPEATS`` times, cold caches each time; the median is
``setup_s``), one untimed warm-up pass, then timed passes until
``--seconds`` of pass time have been measured.  Every pass's outputs are
checked against references computed in this process at set-up.

``--trace 0`` prints the end-to-end metrics, measured untraced, with
times scaled to a reference host speed (``meter.py``).
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics from the traced ones (per traced pass), plus the
tracing overhead against the untraced ones; the spans are written to
``perfbench/out/`` when the run ends.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Progress and sample counts go to standard error.  See
``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("catalog-generate", "catalog-campaign", "synth-match")
SETUP_REPEATS = 3
MIN_PASSES = 4
LAYERS = ("ontology", "pool", "core", "engine", "modules", "campaign", "match")

#: Per-layer metrics that are span aggregates: metric -> (span-name
#: prefix, statistic).  A prefix covers the span of that name and every
#: span named below it (``modules.wire`` covers ``modules.wire.*``).
SPAN_METRICS = {
    "ontology.partitions_of.calls": ("ontology.partitions_of", "calls"),
    "ontology.partitions_of.self_ms": ("ontology.partitions_of", "self_ms"),
    "pool.get_instance.calls": ("pool.get_instance", "calls"),
    "pool.get_instance.self_ms": ("pool.get_instance", "self_ms"),
    "core.generate.self_ms": ("core.generate", "self_ms"),
    "modules.invoke_via_interface.calls": ("modules.invoke_via_interface", "calls"),
    "modules.invoke_via_interface.self_ms": ("modules.invoke_via_interface", "self_ms"),
    "modules.wire.self_ms": ("modules.wire", "self_ms"),
    "engine.invoke.calls": ("engine.invoke", "calls"),
    "engine.invoke.self_ms": ("engine.invoke", "self_ms"),
    "campaign.journal.record_done.calls": ("campaign.journal.record_done", "calls"),
    "campaign.journal.record_done.p50_ms": ("campaign.journal.record_done", "p50_ms"),
    "campaign.journal.record_done.p99_ms": ("campaign.journal.record_done", "p99_ms"),
    "campaign.finalize.self_ms": ("campaign.finalize", "self_ms"),
    "campaign.serialize.self_ms": ("campaign.serialize", "self_ms"),
    "match.signature.self_ms": ("match.signature", "self_ms"),
    "match.index.add_module.self_ms": ("match.index.add_module", "self_ms"),
    "match.index.candidates.self_ms": ("match.index.candidates", "self_ms"),
    "core.matching.map_parameters.self_ms": ("core.matching.map_parameters", "self_ms"),
    "core.matching.compare_behavior.self_ms": ("core.matching.compare_behavior", "self_ms"),
}
#: Per-layer metrics counted by the workload itself after each pass
#: (0 on a workload that bypasses the layer).
COUNTER_METRICS = {
    "core.generate.combinations": "count",
    "core.generate.examples_per_combination": "ratio",
    "engine.cache.hit_ratio": "ratio",
    "engine.cache.evictions": "count",
    "campaign.journal.bytes_per_module": "bytes",
    "match.index.candidates_per_query": "count",
    "match.pruning_ratio": "ratio",
    "match.mapped_per_candidate": "ratio",
    "match.verify_invocations": "count",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def operation_latencies(passes) -> "list[float]":
    """Each operation's median latency over the run's passes.

    Every pass runs the same operations in the same order.  Host noise
    hits a different operation in each pass, so the per-operation median
    keeps the workload's own slow operations and drops the noise.
    """
    return [
        statistics.median(column)
        for column in zip(*(p.meter.latencies_ms for p in passes))
    ]


def quartiles(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4g} (q1 {q1:.4g}, q3 {q3:.4g}, n={len(values)})"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(setups, passes) -> dict:
    latencies = operation_latencies(passes)
    rates = [p.attempted / p.meter.scaled_s for p in passes]
    raw_rates = [p.attempted / p.meter.wall_s for p in passes]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        f"  modules/s, scaled: {quartiles(rates)}\n"
        f"  modules/s, raw:    {quartiles(raw_rates)}\n"
        f"  set-up s, raw:     {quartiles([m.wall_s for m in setups])}\n"
        f"  operations: {len(latencies)}, passes: {len(passes)}",
        file=sys.stderr,
    )
    return {
        "setup_s": (statistics.median(m.scaled_s for m in setups), "s"),
        "modules_per_s": (statistics.median(rates), "1/s"),
        "module_p50_ms": (percentile(latencies, 50), "ms"),
        "module_p99_ms": (percentile(latencies, 99), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(recorder, traced, untraced, counters) -> dict:
    runs = len(traced)
    summary = recorder.summarize()

    def spans(prefix):
        return [
            entry for name, entry in summary.items()
            if name == prefix or name.startswith(prefix + ".")
        ]

    metrics = {}
    for metric, (prefix, statistic) in SPAN_METRICS.items():
        entries = spans(prefix)
        if statistic == "calls":
            value, unit = sum(e["calls"] for e in entries) / runs, "count"
        elif statistic == "self_ms":
            value, unit = sum(e["self_s"] for e in entries) * 1000.0 / runs, "ms"
        else:
            durations = [d for e in entries for d in e["durations"]]
            q = 50 if statistic == "p50_ms" else 99
            value = percentile(durations, q) * 1000.0 if durations else 0.0
            unit = "ms"
        metrics[metric] = (value, unit)
    for metric, unit in COUNTER_METRICS.items():
        values = [c.get(metric, 0) for c in counters]
        metrics[metric] = (sum(values) / runs, unit)

    wall_ms = sum(p.meter.wall_s for p in traced) * 1000.0 / runs
    covered_ms = 0.0
    for layer in LAYERS:
        layer_ms = sum(e["self_s"] for e in spans(layer)) * 1000.0 / runs
        covered_ms += layer_ms
        metrics[f"layer.{layer}.self_ms"] = (layer_ms, "ms")
    metrics["other.self_ms"] = (wall_ms - covered_ms, "ms")
    metrics["trace.wall_ms"] = (wall_ms, "ms")
    traced_median = statistics.median(p.meter.scaled_s for p in traced)
    untraced_median = statistics.median(p.meter.scaled_s for p in untraced)
    metrics["trace.overhead_share"] = (traced_median / untraced_median - 1.0, "ratio")
    print(
        f"  traced passes: {runs}, untraced passes: {len(untraced)}, "
        f"spans: {len(recorder)}; layers + other = "
        f"{covered_ms + metrics['other.self_ms'][0]:.3f} ms, "
        f"traced wall {wall_ms:.3f} ms",
        file=sys.stderr,
    )
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from meter import Meter
    from spans import SpanRecorder
    from workloads import WORKLOADS, trace_targets

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    print(f"perfbench {args.workload} seed={args.seed}", file=sys.stderr)

    setups = []
    for _ in range(SETUP_REPEATS):
        meter = Meter(nullcontext())
        with meter.timed():
            workload.setup()
        setups.append(meter)

    correct = workload.check(workload.run_pass(Meter(nullcontext())))  # warm-up
    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        trace_targets(recorder)

    traced, untraced, counters = [], [], []
    measured = 0.0
    while measured < args.seconds or len(traced) + len(untraced) < MIN_PASSES:
        tracing = recorder is not None and len(untraced) > len(traced)
        scope = recorder.active(len(traced)) if tracing else nullcontext()
        result = workload.run_pass(Meter(scope))
        measured += result.meter.wall_s
        if not workload.check(result):
            correct = False
        if tracing:
            traced.append(result)
            counters.append(workload.counters(result))
        else:
            untraced.append(result)
        # Keep only the timings, so memory does not grow with the number
        # of passes and peak_rss_mb stays a property of one pass.
        result.outputs = result.extra = None
    passes = traced + untraced

    if recorder is None:
        metrics = end_to_end(setups, untraced)
    else:
        metrics = per_layer(recorder, traced, untraced, counters)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
        recorder.dump(spans_path)
        print(f"  spans written to {spans_path}", file=sys.stderr)
    print(f"  correct: {correct}", file=sys.stderr)

    print(json.dumps({
        "correct": correct,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
