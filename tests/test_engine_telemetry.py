"""Equivalence tests of the engine's one-call accounting.

Each engine outcome is accounted by one :meth:`Telemetry.account` call
that bumps its counter and files a finished call's latency by bisection
under a single lock.  The oracles below are the separate-call
accounting it replaced — a counter bump and a latency record, each
under its own lock — and the bucket scan of the histogram; every
observable surface must agree with them exactly.
"""

from __future__ import annotations

import math

import pytest

from repro.engine import (
    BreakerPolicy,
    EngineConfig,
    FaultPlan,
    InvocationEngine,
    LatencyHistogram,
    RetryPolicy,
    Telemetry,
)
from repro.modules.errors import InvalidInputError, ModuleUnavailableError
from repro.values import STRING, TypedValue


class ScanHistogram(LatencyHistogram):
    """The histogram with its bucket found by a linear scan."""

    def record(self, latency_ms: float) -> None:
        for index, bound in enumerate(self.BOUNDS_MS):
            if latency_ms <= bound:
                self._counts[index] += 1
                break
        else:
            self._counts[-1] += 1
        self.count += 1
        self.sum_ms += latency_ms
        self.max_ms = max(self.max_ms, latency_ms)


class SeparateCallTelemetry(Telemetry):
    """Accounting as one call per concern, each under its own lock."""

    def __init__(self) -> None:
        super().__init__()
        self.histogram = ScanHistogram()

    def account(self, counter, latency_ms=None):
        with self._lock:
            self._counters[counter] = self._counters.get(counter, 0) + 1
        if latency_ms is not None:
            with self._lock:
                self.histogram.record(latency_ms)


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
def _edge_latencies() -> "list[float]":
    values = [0.0, -0.0, -1.0, -math.inf, math.inf, math.nan, 1e-9, 5000.0]
    for bound in LatencyHistogram.BOUNDS_MS:
        values += [
            math.nextafter(bound, -math.inf),
            bound,
            math.nextafter(bound, math.inf),
        ]
    return values


@pytest.mark.parametrize("latency_ms", _edge_latencies(), ids=repr)
def test_bisected_bucket_matches_the_scan(latency_ms):
    bisected, scanned = LatencyHistogram(), ScanHistogram()
    bisected.record(latency_ms)
    scanned.record(latency_ms)
    assert bisected._counts == scanned._counts
    assert bisected.buckets() == scanned.buckets()
    assert bisected.cumulative_buckets() == scanned.cumulative_buckets()
    assert bisected.count == scanned.count == 1


# ----------------------------------------------------------------------
# Scripted engine run
# ----------------------------------------------------------------------
class TickingClock:
    """A fake monotonic clock; sleeping and each real call advance it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class RejectingInvoker:
    """The innermost invoker: rejects ``bad`` inputs, answers the rest,
    each call costing a different slice of fake time."""

    def __init__(self, clock: TickingClock) -> None:
        self.clock = clock
        self.calls = 0

    def invoke(self, module, ctx, bindings):
        self.calls += 1
        self.clock.now += 0.0002 * self.calls**2
        if bindings["x"].payload == "bad":
            raise InvalidInputError("rejected")
        return {"out": TypedValue(bindings["x"].payload.upper(), STRING)}


def _modules_of_three_providers(catalog):
    by_provider = {}
    for module in catalog:
        by_provider.setdefault(module.provider, module)
    providers = sorted(by_provider)
    assert len(providers) >= 3
    return [by_provider[provider] for provider in providers[:3]]


def _scripted_run(
    telemetry: Telemetry, catalog, ctx, cache_size: int = 16
) -> InvocationEngine:
    """Hit, negative hit, injected faults, a retry, retries exhausted,
    breaker transitions (open, half-open) and a breaker fast-fail."""
    recovering, dark, plain = _modules_of_three_providers(catalog)
    clock = TickingClock()
    engine = InvocationEngine(
        EngineConfig(
            cache_size=cache_size,
            retry=RetryPolicy(max_attempts=2, jitter=0.0),
            fault_plan=FaultPlan(
                blackout_providers=frozenset({recovering.provider}),
                blackout_calls=1,
                permanent_blackout_providers=frozenset({dark.provider}),
            ),
            breaker=BreakerPolicy(failure_threshold=1, probe_interval=10.0),
        ),
        invoker=RejectingInvoker(clock),
        telemetry=telemetry,
        clock=clock,
        sleep=clock.sleep,
    )
    good = {"x": TypedValue("good", STRING)}
    bad = {"x": TypedValue("bad", STRING)}
    engine.invoke(recovering, ctx, good)      # fault, retry, ok
    engine.invoke(recovering, ctx, good)      # hit
    for _ in range(2):                        # invalid, then negative hit
        with pytest.raises(InvalidInputError):
            engine.invoke(plain, ctx, bad)
    engine.invoke(plain, ctx, good)           # ok
    for _ in range(2):                        # exhausted + open, fast-fail
        with pytest.raises(ModuleUnavailableError):
            engine.invoke(dark, ctx, good)
    clock.now += 10.0
    with pytest.raises(ModuleUnavailableError):  # half-open probe fails
        engine.invoke(dark, ctx, good)
    return engine


# A cache barely larger than the script's three cached entries, and a
# roomy one: the single-lock accounting must agree with the oracle both ways.
@pytest.mark.parametrize("cache_size", [4, 1000])
def test_scripted_run_matches_separate_call_accounting(
    catalog, ctx, cache_size
):
    engine = _scripted_run(Telemetry(), catalog, ctx, cache_size)
    oracle = _scripted_run(SeparateCallTelemetry(), catalog, ctx, cache_size)
    telemetry, expected = engine.telemetry, oracle.telemetry
    assert telemetry.counters() == expected.counters()
    assert telemetry.snapshot() == expected.snapshot()
    assert telemetry.render() == expected.render()
    assert engine.stats() == oracle.stats()
    assert engine.render_stats() == oracle.render_stats()

    counters = telemetry.counters()
    for name in (
        "cache_hits", "cache_negative_hits", "faults_injected", "retries",
        "retries_exhausted", "breaker_opened", "breaker_fast_fails",
        "ok", "invalid", "unavailable",
    ):
        assert counters.get(name, 0) >= 1, name
    assert counters["cache_hits"] == counters["cache_negative_hits"] == 1
    # The failed half-open probe reopens the circuit: the second opening
    # is counted, the half-open state itself is not.
    assert counters["breaker_opened"] == 2
