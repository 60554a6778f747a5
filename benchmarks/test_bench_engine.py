"""Bench: the invocation engine — serial vs. cached vs. parallel.

Two regimes are measured over the default catalog:

* the *simulator* regime (calls cost microseconds): caching must still
  win, because a cache hit skips the whole supply-interface round trip
  (envelope building, JSON/XML serialization, behavior execution);
* the *network-bound* regime the paper's harvesting actually lives in
  (§4: 252 remote modules), modelled with seeded injected latency: here
  the thread-pool scheduler overlaps the waiting and must beat serial.

The speedup assertions are deliberately loose (>1.0 with slack) — they
document that the machinery helps, not a specific ratio on specific
hardware; the recorded factors land in the benchmark output.
"""

from __future__ import annotations

import statistics
import time

from repro.core.generation import ExampleGenerator
from repro.engine import EngineConfig, FaultPlan, InvocationEngine

#: Injected one-way latency (ms) for the network-bound regime.  Small
#: enough to keep the suite quick, large enough to dwarf simulator cost.
NETWORK_LATENCY_MS = 2.0
PARALLELISM = 8


def _generator(ctx, pool, **config) -> ExampleGenerator:
    return ExampleGenerator(ctx, pool, engine=InvocationEngine(EngineConfig(**config)))


def _paired_overhead(label: str, items, run_plain, run_costly, rounds: int = 20) -> float:
    """Relative wall-clock overhead of ``run_costly`` over ``run_plain``.

    An item is the unit the two runs are interleaved at: one module, or
    a whole catalog where the costly variant only exists per pass.  One
    estimate runs ``rounds`` rounds; each round times both variants back
    to back on every item, the order alternating from item to item and
    from round to round.  Per item, the median paired delta and the
    median plain time are taken over the rounds; the estimate is the sum
    of the median deltas over the sum of the median plain times.  The
    best of up to five estimates is returned, sampling stopping early
    once one lands under 0.04.  The estimates are printed under
    ``label``.  See :func:`test_engine_tracing_overhead_bounded` for why.
    """
    clock = time.perf_counter

    def estimate() -> float:
        deltas = [[] for _ in items]
        bases = [[] for _ in items]
        for round_ in range(rounds):
            for index, item in enumerate(items):
                costly_first = (round_ + index) % 2
                start = clock()
                (run_costly if costly_first else run_plain)(item)
                middle = clock()
                (run_plain if costly_first else run_costly)(item)
                end = clock()
                first, second = middle - start, end - middle
                cost, base = (first, second) if costly_first else (second, first)
                deltas[index].append(cost - base)
                bases[index].append(base)
        return sum(map(statistics.median, deltas)) / sum(
            map(statistics.median, bases)
        )

    estimates: "list[float]" = []
    for _attempt in range(5):
        estimates.append(estimate())
        if min(estimates) < 0.04:
            break
        time.sleep(1.0)  # let a noisy-machine burst pass before resampling
    overhead = min(estimates)
    print(
        f"\n{label}: {overhead:+.1%} (best of {len(estimates)} estimates "
        f"over {rounds} rounds x {len(items)} items: "
        f"{', '.join(f'{e:+.1%}' for e in estimates)})"
    )
    return overhead


def test_bench_engine_serial(benchmark, setup):
    generator = _generator(setup.ctx, setup.pool)
    reports = benchmark(generator.generate_many, setup.catalog)
    assert len(reports) == 252


def test_bench_engine_cached(benchmark, setup):
    generator = _generator(setup.ctx, setup.pool, cache_size=8192)
    generator.generate_many(setup.catalog)  # warm

    reports = benchmark(generator.generate_many, setup.catalog)
    assert len(reports) == 252
    assert generator.engine.telemetry.counter("cache_hits") > 0


def test_bench_engine_parallel_with_latency(benchmark, setup):
    generator = _generator(
        setup.ctx,
        setup.pool,
        parallelism=PARALLELISM,
        fault_plan=FaultPlan(latency_ms=NETWORK_LATENCY_MS),
    )
    reports = benchmark(generator.generate_many, setup.catalog)
    assert len(reports) == 252


def test_engine_cached_speedup_with_identical_reports(setup):
    """The acceptance measurement: a warm cache beats re-invocation and
    produces byte-identical reports."""
    plain = _generator(setup.ctx, setup.pool)
    start = time.perf_counter()
    baseline_reports = plain.generate_many(setup.catalog)
    baseline = time.perf_counter() - start

    cached = _generator(setup.ctx, setup.pool, cache_size=8192)
    cached.generate_many(setup.catalog)  # warm
    start = time.perf_counter()
    cached_reports = cached.generate_many(setup.catalog)
    warm = time.perf_counter() - start

    assert cached_reports == baseline_reports
    hits = cached.engine.telemetry.counter("cache_hits")
    negative = cached.engine.telemetry.counter("cache_negative_hits")
    calls = sum(
        r.n_examples + r.invalid_combinations for r in baseline_reports.values()
    )
    assert hits + negative == calls  # the warm pass never touched the wire
    speedup = baseline / warm if warm else float("inf")
    print(
        f"\ncached generation speedup: {speedup:.1f}x "
        f"({baseline * 1000:.1f}ms cold vs {warm * 1000:.1f}ms warm, "
        f"{hits + negative}/{calls} served from cache)"
    )
    assert speedup > 1.2


def test_bench_engine_traced(benchmark, setup):
    generator = _generator(setup.ctx, setup.pool, tracing=True)
    reports = benchmark(generator.generate_many, setup.catalog)
    assert len(reports) == 252
    assert generator.engine.tracer.snapshot()["traces_kept"] > 0


def test_engine_tracing_zero_cost_when_disabled(setup):
    """Untraced engines build the exact pre-observability stack: no
    tracer, and no tracing wrapper anywhere in the invoker chain."""
    from repro.obs.tracing import TracingInvoker

    generator = _generator(setup.ctx, setup.pool)
    engine = generator.engine
    assert engine.tracer is None
    layer = engine.invoker
    while layer is not None:
        assert not isinstance(layer, TracingInvoker)
        layer = getattr(layer, "inner", None)


def test_engine_tracing_overhead_bounded(setup):
    """The acceptance measurement: tracing costs <5% wall-clock on the
    generation workload, and traced reports are byte-identical.

    The workload runs in ~100us per invocation, so the ~5% signal is
    far below a shared host's noise floor (frequency scaling, co-tenant
    load: whole catalog passes swing by +-30%).  The estimator is built
    for that reality: the traced and untraced generators are paired on
    each *module*, back to back, so drift (which moves over tens of
    milliseconds, not the fraction of a millisecond one module takes)
    hits both sides of a pair alike; the order within a pair alternates
    so whichever cache or turbo state the first run leaves behind
    penalizes each variant equally; per module the median paired
    *delta* over twenty rounds is kept (the median discards GC pauses
    and scheduler spikes), so one estimate rests on 20 x 252 pairs; and
    the best of up to five independent estimates is asserted, sampling
    stopping early once one lands clearly under the bound — a noisy
    co-tenant burst lasts seconds and is waited out, while a genuinely
    >=5% overhead fails every sample.
    """
    sample = setup.catalog
    untraced = _generator(setup.ctx, setup.pool)
    traced = _generator(setup.ctx, setup.pool, tracing=True)

    untraced_reports = untraced.generate_many(sample)  # warm both paths
    traced_reports = traced.generate_many(sample)
    assert traced_reports == untraced_reports

    overhead = _paired_overhead(
        "tracing overhead", sample, untraced.generate, traced.generate
    )
    assert overhead < 0.05


def test_engine_sampling_overhead_bounded(setup):
    """The longitudinal acceptance measurement: interval-gated sampling
    (a full engine snapshot — counters, histogram, health rollup, SLO
    evaluation — at a 20 Hz cadence, far denser than any real
    campaign's ``sample_interval``) costs <5% wall-clock, and sampled
    reports are byte-identical to unsampled ones.

    The gate is the one :class:`repro.campaign.runner.CampaignRunner`
    ships — a clock check per module, a snapshot only when the interval
    has elapsed — so the number measured here is the number campaigns
    pay.  Same estimator (:func:`_paired_overhead`) as
    :func:`test_engine_tracing_overhead_bounded`, paired per catalog
    pass: the interval gate spans modules, so a pass is the unit the
    sampled path exists in.
    """
    from repro.obs.slo import SLOEvaluator
    from repro.obs.timeseries import Sampler, take_sample

    sample = setup.catalog
    interval = 0.05
    plain = _generator(setup.ctx, setup.pool)
    sampled = _generator(setup.ctx, setup.pool)
    sampler = Sampler(
        lambda progress: take_sample(sampled.engine, progress),
        evaluator=SLOEvaluator(),
    )
    n_planned = len(sample)

    def run_plain(sample=sample):
        return {m.module_id: plain.generate(m) for m in sample}

    def run_sampled(sample=sample):
        reports = {}
        last = time.perf_counter()
        for index, module in enumerate(sample):
            reports[module.module_id] = sampled.generate(module)
            now = time.perf_counter()
            if now - last >= interval:
                last = now
                sampler.sample(
                    {"n_planned": n_planned, "n_done": index + 1, "n_skipped": 0}
                )
        return reports

    # A pass samples only once it outlasts the interval, and one pass
    # over the catalog takes about as long as the interval: repeat the
    # warm-up (a fixed number of times at most) until a snapshot lands,
    # so the gate below measures a sampled path that really samples.
    for _warmup in range(20):
        assert run_sampled() == run_plain()  # warm both paths, same content
        if len(sampler.ring):
            break
    assert len(sampler.ring) > 0

    overhead = _paired_overhead(
        "sampling overhead", [sample], run_plain, run_sampled
    )
    assert overhead < 0.05


def test_engine_profiler_overhead_bounded(setup):
    """The continuous-profiling acceptance measurement: a 50 Hz
    sampling profiler running over the generation workload costs <5%
    wall-clock, and the profiled reports are byte-identical.

    50 Hz is the rate ``REPRO_PROFILE_HZ=50`` arms fleet-wide, so the
    number measured here is the number replicas and shard workers pay.
    Same estimator (:func:`_paired_overhead`) as
    :func:`test_engine_tracing_overhead_bounded`, paired per catalog
    pass: the profiler thread is started once per pass.
    """
    from repro.obs.profiler import SamplingProfiler

    sample = setup.catalog
    generator = _generator(setup.ctx, setup.pool)
    baseline_reports = generator.generate_many(sample)  # warm

    def run_plain(sample=sample):
        return generator.generate_many(sample)

    def run_profiled(sample=sample):
        with SamplingProfiler(hz=50):
            return generator.generate_many(sample)

    assert run_profiled() == baseline_reports

    overhead = _paired_overhead(
        "profiler overhead at 50 Hz", [sample], run_plain, run_profiled
    )
    assert overhead < 0.05


def test_engine_parallel_speedup_under_latency(setup):
    """In the network-bound regime the scheduler overlaps the waiting:
    identical reports, materially less wall-clock."""
    plan = FaultPlan(latency_ms=NETWORK_LATENCY_MS, latency_jitter=0.0)
    sample = setup.catalog[:96]

    serial = _generator(setup.ctx, setup.pool, fault_plan=plan)
    start = time.perf_counter()
    serial_reports = serial.generate_many(sample)
    serial_s = time.perf_counter() - start

    parallel = _generator(
        setup.ctx, setup.pool, parallelism=PARALLELISM, fault_plan=plan
    )
    start = time.perf_counter()
    parallel_reports = parallel.generate_many(sample)
    parallel_s = time.perf_counter() - start

    assert parallel_reports == serial_reports
    speedup = serial_s / parallel_s if parallel_s else float("inf")
    print(
        f"\nparallel (x{PARALLELISM}) speedup under {NETWORK_LATENCY_MS}ms "
        f"injected latency: {speedup:.1f}x "
        f"({serial_s * 1000:.0f}ms vs {parallel_s * 1000:.0f}ms)"
    )
    assert speedup > 1.5
