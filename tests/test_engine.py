"""Tests of the invocation engine: cache, retry, faults, telemetry."""

from __future__ import annotations

import copy
import gc
import weakref

import pytest

from repro.engine import (
    BreakerPolicy,
    ConformancePolicy,
    DeadlineExceededError,
    DirectInvoker,
    EngineConfig,
    FaultInjectingInvoker,
    FaultPlan,
    InjectedFaultError,
    InvocationCache,
    InvocationEngine,
    LatencyHistogram,
    RetryingInvoker,
    RetryPolicy,
    Telemetry,
    WatchdogPolicy,
    canonical_key,
)
from repro.modules.errors import (
    InvalidInputError,
    ModuleUnavailableError,
    StructuralMismatchError,
)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
class ScriptedInvoker:
    """An invoker that replays a script of outcomes, then succeeds."""

    def __init__(self, script=(), outputs=None):
        self.script = list(script)
        self.outputs = outputs if outputs is not None else {}
        self.calls = 0

    def invoke(self, module, ctx, bindings):
        self.calls += 1
        if self.script:
            outcome = self.script.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
        return dict(self.outputs)


class FakeClock:
    """A controllable monotonic clock; sleeping advances it."""

    def __init__(self):
        self.now = 0.0
        self.slept: list[float] = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds


@pytest.fixture
def module(catalog_by_id):
    return catalog_by_id["ret.get_uniprot_record"]


@pytest.fixture
def good_bindings(ctx, pool, module):
    value = pool.get_instance(
        module.inputs[0].concept, module.inputs[0].structural
    )
    assert value is not None
    return {module.inputs[0].name: value}


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
class TestInvocationCache:
    def test_miss_then_hit(self, ctx, module, good_bindings):
        cache = InvocationCache(maxsize=8)
        key = canonical_key(module, good_bindings)
        assert cache.lookup(key) is None
        cache.store_success(key, {"out": "x"})
        outcome = cache.lookup(key)
        assert outcome is not None and outcome.replay() == {"out": "x"}
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_replay_returns_a_fresh_mapping(self, module, good_bindings):
        cache = InvocationCache(maxsize=8)
        key = canonical_key(module, good_bindings)
        cache.store_success(key, {"out": "x"})
        first = cache.lookup(key).replay()
        first["out"] = "mutated"
        assert cache.lookup(key).replay() == {"out": "x"}

    def test_negative_caching_replays_error_type(self, module, good_bindings):
        cache = InvocationCache(maxsize=8)
        key = canonical_key(module, good_bindings)
        cache.store_failure(key, StructuralMismatchError("bad shape"))
        outcome = cache.lookup(key)
        assert outcome.is_failure
        with pytest.raises(StructuralMismatchError, match="bad shape"):
            outcome.replay()
        assert cache.stats.negative_hits == 1

    def test_lru_eviction_and_stats(self, catalog, ctx, pool):
        cache = InvocationCache(maxsize=2)
        keys = [(m.module_id, "{}") for m in catalog[:3]]
        for key in keys:
            cache.store_success(key, {})
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.lookup(keys[0]) is None  # the oldest was evicted
        assert cache.lookup(keys[2]) is not None

    def test_lookup_freshens_recency(self):
        cache = InvocationCache(maxsize=2)
        cache.store_success(("a", "{}"), {})
        cache.store_success(("b", "{}"), {})
        cache.lookup(("a", "{}"))  # freshen a; b becomes the LRU entry
        cache.store_success(("c", "{}"), {})
        assert cache.lookup(("a", "{}")) is not None
        assert cache.lookup(("b", "{}")) is None

    def test_invalidate_by_module(self):
        cache = InvocationCache(maxsize=8)
        cache.store_success(("a", "{}"), {})
        cache.store_success(("a", '{"x": 1}'), {})
        cache.store_success(("b", "{}"), {})
        assert cache.invalidate("a") == 2
        assert len(cache) == 1

    def test_canonical_key_is_binding_order_independent(
        self, catalog_by_id, pool
    ):
        module = next(
            m for m in catalog_by_id.values() if len(m.inputs) >= 2
        )
        values = {
            p.name: pool.get_instance(p.concept, p.structural)
            for p in module.inputs
        }
        values = {k: v for k, v in values.items() if v is not None}
        assert len(values) >= 2
        names = list(values)
        forward = dict(values)
        backward = {name: values[name] for name in reversed(names)}
        assert canonical_key(module, forward) == canonical_key(module, backward)

    def test_canonical_key_survives_dict_insertion_order(self, catalog):
        """Two bindings dicts with the same content but different
        insertion histories must produce the same cache key."""
        from repro.values import INTEGER, STRING, TypedValue

        module = catalog[0]
        a = TypedValue(payload="x", structural=STRING, concept=None)
        b = TypedValue(payload=3, structural=INTEGER, concept=None)
        grown = {"p": a}
        grown["q"] = b
        grown["p"] = a  # rewrite does not move the key in a dict
        assert canonical_key(module, {"q": b, "p": a}) == canonical_key(
            module, grown
        )

    def test_canonical_key_normalizes_nan_payloads(self, catalog):
        """NaN != NaN, but two NaN-carrying bindings are the *same*
        combination — and the key must stay valid JSON (no bare NaN
        token)."""
        import json

        from repro.values import FLOAT, TypedValue

        module = catalog[0]
        nan_a = TypedValue(payload=float("nan"), structural=FLOAT, concept=None)
        nan_b = TypedValue(payload=float("nan"), structural=FLOAT, concept=None)
        finite = TypedValue(payload=1.5, structural=FLOAT, concept=None)
        key_a = canonical_key(module, {"x": nan_a})
        key_b = canonical_key(module, {"x": nan_b})
        assert key_a == key_b
        assert key_a != canonical_key(module, {"x": finite})
        json.loads(key_a[1])  # strict JSON, round-trippable

    def test_canonical_key_normalizes_nan_inside_tuples(self, catalog):
        from repro.values import FLOAT, TypedValue, list_of

        module = catalog[0]
        kind = list_of(FLOAT)
        first = TypedValue(
            payload=(1.0, float("nan")), structural=kind, concept=None
        )
        second = TypedValue(
            payload=(1.0, float("nan")), structural=kind, concept=None
        )
        assert canonical_key(module, {"xs": first}) == canonical_key(
            module, {"xs": second}
        )


# ----------------------------------------------------------------------
# Retry
# ----------------------------------------------------------------------
class TestRetry:
    def test_recovers_after_transient_failures(self, module, ctx, good_bindings):
        inner = ScriptedInvoker(
            [ModuleUnavailableError("blip"), ModuleUnavailableError("blip")],
            outputs={"ok": 1},
        )
        clock = FakeClock()
        invoker = RetryingInvoker(
            inner, RetryPolicy(max_attempts=3, base_delay=0.1),
            clock=clock, sleep=clock.sleep,
        )
        assert invoker.invoke(module, ctx, good_bindings) == {"ok": 1}
        assert inner.calls == 3
        assert len(clock.slept) == 2
        # Exponential backoff: the second delay is roughly double the first.
        assert clock.slept[1] > clock.slept[0]

    def test_exhaustion_reraises_last_error(self, module, ctx, good_bindings):
        inner = ScriptedInvoker([ModuleUnavailableError("down")] * 5)
        clock = FakeClock()
        invoker = RetryingInvoker(
            inner, RetryPolicy(max_attempts=3), clock=clock, sleep=clock.sleep
        )
        with pytest.raises(ModuleUnavailableError, match="down"):
            invoker.invoke(module, ctx, good_bindings)
        assert inner.calls == 3

    def test_invalid_input_is_never_retried(self, module, ctx, good_bindings):
        inner = ScriptedInvoker([InvalidInputError("no such accession")])
        invoker = RetryingInvoker(inner, RetryPolicy(max_attempts=5))
        with pytest.raises(InvalidInputError):
            invoker.invoke(module, ctx, good_bindings)
        assert inner.calls == 1

    def test_deadline_enforced(self, module, ctx, good_bindings):
        inner = ScriptedInvoker([ModuleUnavailableError("down")] * 50)
        clock = FakeClock()
        invoker = RetryingInvoker(
            inner,
            RetryPolicy(max_attempts=50, base_delay=1.0, deadline=2.5, jitter=0.0),
            clock=clock,
            sleep=clock.sleep,
        )
        with pytest.raises(DeadlineExceededError):
            invoker.invoke(module, ctx, good_bindings)
        # 1s + 2s backoff would pass 2.5s, so at most the 1s retry ran.
        assert inner.calls <= 2
        # A deadline error still reads as an availability failure.
        with pytest.raises(ModuleUnavailableError):
            raise DeadlineExceededError("x")

    def test_jitter_is_seeded_and_deterministic(self):
        import random

        policy = RetryPolicy(base_delay=0.1, jitter=0.5, seed=7)
        first = [
            policy.delay_before(i, random.Random(7)) for i in range(3)
        ]
        second = [
            policy.delay_before(i, random.Random(7)) for i in range(3)
        ]
        assert first == second
        varied = [policy.delay_before(0, random.Random(s)) for s in range(20)]
        assert len(set(varied)) > 1

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_zero_rate_is_transparent(self, module, ctx, good_bindings):
        inner = ScriptedInvoker(outputs={"ok": 1})
        invoker = FaultInjectingInvoker(inner, FaultPlan())
        assert invoker.invoke(module, ctx, good_bindings) == {"ok": 1}

    def test_transient_rate_is_seeded(self, module, ctx, good_bindings):
        def failures(seed):
            invoker = FaultInjectingInvoker(
                ScriptedInvoker(), FaultPlan(seed=seed, transient_failure_rate=0.3)
            )
            out = []
            for _ in range(50):
                try:
                    invoker.invoke(module, ctx, good_bindings)
                    out.append(False)
                except InjectedFaultError:
                    out.append(True)
            return out

        assert failures(11) == failures(11)
        assert 0 < sum(failures(11)) < 50

    def test_blackout_fails_then_recovers(self, module, ctx, good_bindings):
        invoker = FaultInjectingInvoker(
            ScriptedInvoker(outputs={"ok": 1}),
            FaultPlan(
                blackout_providers=frozenset({module.provider}),
                blackout_calls=2,
            ),
        )
        for _ in range(2):
            with pytest.raises(InjectedFaultError, match="blacked out"):
                invoker.invoke(module, ctx, good_bindings)
        assert invoker.invoke(module, ctx, good_bindings) == {"ok": 1}
        assert invoker.blackout_remaining(module.provider) == 0

    def test_injected_latency_sleeps(self, module, ctx, good_bindings):
        clock = FakeClock()
        invoker = FaultInjectingInvoker(
            ScriptedInvoker(outputs={}),
            FaultPlan(latency_ms=10.0, latency_jitter=0.0),
            sleep=clock.sleep,
        )
        invoker.invoke(module, ctx, good_bindings)
        assert clock.slept == [pytest.approx(0.01)]

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(transient_failure_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(latency_ms=-1)

    def test_retry_rides_out_a_blackout(self, module, ctx, good_bindings):
        clock = FakeClock()
        faulty = FaultInjectingInvoker(
            ScriptedInvoker(outputs={"ok": 1}),
            FaultPlan(
                blackout_providers=frozenset({module.provider}),
                blackout_calls=2,
            ),
        )
        retrying = RetryingInvoker(
            faulty, RetryPolicy(max_attempts=4), clock=clock, sleep=clock.sleep
        )
        assert retrying.invoke(module, ctx, good_bindings) == {"ok": 1}


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
class TestTelemetry:
    def test_counters_accumulate(self):
        telemetry = Telemetry()
        for _ in range(5):
            telemetry.account("calls")
        assert telemetry.counter("calls") == 5
        assert telemetry.counter("unknown") == 0

    def test_histogram_quantiles_and_buckets(self):
        hist = LatencyHistogram()
        for ms in (0.04, 0.2, 0.2, 0.4, 3.0, 2000.0):
            hist.record(ms)
        assert hist.count == 6
        assert hist.max_ms == 2000.0
        assert hist.quantile(0.5) == 0.25
        assert hist.quantile(1.0) == 2000.0  # overflow bucket -> observed max
        buckets = hist.buckets()
        assert buckets["<=0.25ms"] == 2
        assert buckets["inf"] == 1
        with pytest.raises(ValueError):
            hist.quantile(1.2)

    def test_snapshot_and_render(self):
        telemetry = Telemetry()
        telemetry.account("calls")
        telemetry.account("ok", 0.3)
        snap = telemetry.snapshot()
        assert snap["counters"]["calls"] == 1
        assert snap["latency"]["count"] == 1
        text = telemetry.render()
        assert "module calls:    1" in text
        assert "latency" in text

    def test_thread_safety_under_concurrent_increments(self):
        import threading

        telemetry = Telemetry()

        def hammer():
            for _ in range(1000):
                telemetry.account("calls", 0.1)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert telemetry.counter("calls") == 8000
        assert telemetry.histogram.count == 8000


# ----------------------------------------------------------------------
# The assembled engine
# ----------------------------------------------------------------------
class TestInvocationEngine:
    def test_direct_engine_matches_direct_invoker(
        self, module, ctx, good_bindings
    ):
        engine = InvocationEngine()
        direct = DirectInvoker().invoke(module, ctx, good_bindings)
        assert engine.invoke(module, ctx, good_bindings) == direct
        assert engine.telemetry.counter("calls") == 1
        assert engine.telemetry.counter("ok") == 1

    def test_cache_absorbs_repeat_invocations(self, module, ctx, good_bindings):
        engine = InvocationEngine(EngineConfig(cache_size=16))
        first = engine.invoke(module, ctx, good_bindings)
        second = engine.invoke(module, ctx, good_bindings)
        assert first == second
        assert engine.telemetry.counter("calls") == 1
        assert engine.telemetry.counter("cache_hits") == 1
        assert engine.cache.stats.hits == 1

    def test_negative_cache_replays_invalid_input(self, module, ctx, pool):
        engine = InvocationEngine(EngineConfig(cache_size=16))
        bad = {}  # mandatory input unbound -> InvalidInputError
        with pytest.raises(InvalidInputError):
            engine.invoke(module, ctx, bad)
        with pytest.raises(InvalidInputError):
            engine.invoke(module, ctx, bad)
        assert engine.telemetry.counter("calls") == 1
        assert engine.telemetry.counter("cache_negative_hits") == 1

    def test_unavailable_is_not_cached(self, module, ctx, good_bindings):
        engine = InvocationEngine(
            EngineConfig(cache_size=16),
            invoker=ScriptedInvoker(
                [ModuleUnavailableError("down")], outputs={"ok": 1}
            ),
        )
        with pytest.raises(ModuleUnavailableError):
            engine.invoke(module, ctx, good_bindings)
        # The provider "recovers"; the cache must not replay the failure.
        assert engine.invoke(module, ctx, good_bindings) == {"ok": 1}
        assert engine.telemetry.counter("calls") == 2

    def test_withdrawn_module_is_not_answered_from_cache(
        self, module, ctx, good_bindings
    ):
        module = copy.copy(module)  # withdrawn below; the catalog's stays
        engine = InvocationEngine(EngineConfig(cache_size=16))
        outputs = engine.invoke(module, ctx, good_bindings)
        assert engine.invoke(module, ctx, good_bindings) == outputs
        assert engine.telemetry.counter("cache_hits") == 1
        # The provider withdraws the module: the cached answer must not
        # stand in for it.
        module.available = False
        with pytest.raises(ModuleUnavailableError):
            engine.invoke(module, ctx, good_bindings)
        assert engine.telemetry.counter("unavailable") == 1
        assert engine.telemetry.counter("cache_hits") == 1
        assert engine.telemetry.counter("calls") == 2

    def test_full_stack_counts_retries_and_faults(
        self, module, ctx, good_bindings
    ):
        clock = FakeClock()
        engine = InvocationEngine(
            EngineConfig(
                cache_size=16,
                retry=RetryPolicy(max_attempts=5),
                fault_plan=FaultPlan(
                    blackout_providers=frozenset({module.provider}),
                    blackout_calls=2,
                ),
            ),
            clock=clock,
            sleep=clock.sleep,
        )
        outputs = engine.invoke(module, ctx, good_bindings)
        assert outputs  # the real module answered after the blackout
        assert engine.telemetry.counter("retries") == 2
        assert engine.telemetry.counter("faults_injected") == 2
        assert engine.telemetry.counter("ok") == 1
        stats = engine.stats()
        assert stats["cache"]["misses"] == 1
        counters = stats["counters"]
        assert counters["faults_injected"] == 2
        assert counters["retries"] == 2
        assert counters["ok"] == 1

    def test_full_stack_is_freed_without_the_cycle_collector(
        self, module, ctx, good_bindings
    ):
        """No layer holds a reference back to the engine, so dropping it
        frees its cache at once."""
        engine = InvocationEngine(
            EngineConfig(
                cache_size=16,
                retry=RetryPolicy(max_attempts=2),
                fault_plan=FaultPlan(),
                conformance=ConformancePolicy(),
                watchdog=WatchdogPolicy(budget=5.0),
                breaker=BreakerPolicy(),
            )
        )
        engine.invoke(module, ctx, good_bindings)
        alive = weakref.ref(engine)
        gc.disable()
        try:
            del engine
            assert alive() is None
        finally:
            gc.enable()

    def test_render_stats_mentions_every_layer(self):
        engine = InvocationEngine(EngineConfig(cache_size=4, parallelism=3))
        text = engine.render_stats()
        assert "cache size" in text
        assert "parallelism 3" in text


# ----------------------------------------------------------------------
# Negative-cache TTL and generation stamps (repair-driven revisiting)
# ----------------------------------------------------------------------
class TestNegativeCacheExpiry:
    def test_negative_entry_expires_after_ttl(self, module, good_bindings):
        clock = FakeClock()
        cache = InvocationCache(maxsize=8, negative_ttl=60.0, clock=clock)
        key = canonical_key(module, good_bindings)
        cache.store_failure(key, InvalidInputError("rejected"))
        clock.now = 59.9
        assert cache.lookup(key) is not None  # still replayable
        clock.now = 60.0
        assert cache.lookup(key) is None  # aged out: revisit the module
        assert cache.stats.negative_expired == 1
        assert cache.lookup(key) is None  # gone for good, plain miss
        assert cache.stats.negative_expired == 1

    def test_positive_entries_never_expire(self, module, good_bindings):
        clock = FakeClock()
        cache = InvocationCache(maxsize=8, negative_ttl=1.0, clock=clock)
        key = canonical_key(module, good_bindings)
        cache.store_success(key, {"out": "x"})
        clock.now = 1e9
        outcome = cache.lookup(key)
        assert outcome is not None and outcome.replay() == {"out": "x"}

    def test_module_bump_drops_only_that_modules_negatives(self):
        cache = InvocationCache(maxsize=8)
        cache.store_failure(("a", "{}"), InvalidInputError("no"))
        cache.store_success(("a", '{"x": 1}'), {})
        cache.store_failure(("b", "{}"), InvalidInputError("no"))
        assert cache.bump_generation("a") == 1  # the repaired module
        assert cache.lookup(("a", "{}")) is None
        assert cache.lookup(("a", '{"x": 1}')) is not None  # positive kept
        assert cache.lookup(("b", "{}")) is not None  # other module kept

    def test_global_bump_expires_negatives_lazily(self):
        cache = InvocationCache(maxsize=8)
        cache.store_failure(("a", "{}"), InvalidInputError("no"))
        cache.store_success(("b", "{}"), {})
        assert cache.bump_generation() == 0  # nothing dropped eagerly
        assert cache.lookup(("a", "{}")) is None  # lazily expired
        assert cache.stats.negative_expired == 1
        assert cache.lookup(("b", "{}")) is not None
        # A rejection stored *after* the bump is current again.
        cache.store_failure(("a", "{}"), InvalidInputError("still no"))
        assert cache.lookup(("a", "{}")) is not None

    def test_ttl_validation(self):
        with pytest.raises(ValueError):
            InvocationCache(maxsize=8, negative_ttl=0)

    def test_engine_revisits_rejections_after_ttl(
        self, module, ctx, good_bindings
    ):
        """End to end: a repaired module's rejection is re-asked once the
        negative TTL lapses, and the fresh answer is cached."""
        clock = FakeClock()
        inner = ScriptedInvoker(
            [InvalidInputError("broken build")], outputs={"ok": 1}
        )
        engine = InvocationEngine(
            EngineConfig(cache_size=16, negative_ttl=30.0),
            invoker=inner,
            clock=clock,
        )
        with pytest.raises(InvalidInputError):
            engine.invoke(module, ctx, good_bindings)
        with pytest.raises(InvalidInputError):  # replayed, no call
            engine.invoke(module, ctx, good_bindings)
        assert inner.calls == 1
        clock.now = 30.0  # the module was repaired meanwhile
        assert engine.invoke(module, ctx, good_bindings) == {"ok": 1}
        assert inner.calls == 2
        assert engine.stats()["cache"]["negative_expired"] == 1

    def test_engine_bump_generation_revisits_immediately(
        self, module, ctx, good_bindings
    ):
        inner = ScriptedInvoker(
            [InvalidInputError("broken build")], outputs={"ok": 1}
        )
        engine = InvocationEngine(EngineConfig(cache_size=16), invoker=inner)
        with pytest.raises(InvalidInputError):
            engine.invoke(module, ctx, good_bindings)
        engine.cache.bump_generation(module.module_id)
        assert engine.invoke(module, ctx, good_bindings) == {"ok": 1}
        assert inner.calls == 2
