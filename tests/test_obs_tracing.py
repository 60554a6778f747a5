"""Tests of the tracing layer: claim-by-mark tree building, the
watchdog fork/join hand-off, ring-buffer accounting, and the span
shapes a wired engine actually produces."""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.generation import ExampleGenerator
from repro.engine import (
    BreakerPolicy,
    ConformancePolicy,
    EngineConfig,
    FaultPlan,
    InvocationEngine,
    RetryPolicy,
    WatchdogPolicy,
)
from repro.obs import LAYERS, Span, Tracer, TracingInvoker


class FakeClock:
    """A hand-cranked monotonic clock (seconds)."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock=clock)


# ----------------------------------------------------------------------
# Claim-by-mark tree building
# ----------------------------------------------------------------------
class TestSpanTree:
    def test_nested_spans_become_children(self, tracer, clock):
        root = tracer.open_root({"provider": "EBI"})
        outer = tracer.open()
        inner = tracer.open()
        clock.tick(0.002)
        tracer.close("faults", "m1", inner)
        tracer.close("watchdog", "m1", outer)
        clock.tick(0.001)
        tracer.close_root("m1", root)

        (trace,) = tracer.traces()
        assert trace.name == "invoke"
        assert trace.module_id == "m1"
        assert trace.attributes == {"provider": "EBI"}
        assert trace.start_ms == pytest.approx(0.0)
        assert trace.duration_ms == pytest.approx(3.0)
        (watchdog,) = trace.children
        assert watchdog.name == "watchdog"
        assert watchdog.duration_ms == pytest.approx(2.0)
        (faults,) = watchdog.children
        assert faults.name == "faults"
        assert faults.children == ()

    def test_sequential_spans_become_siblings(self, tracer, clock):
        root = tracer.open_root({})
        first = tracer.open()
        clock.tick(0.001)
        tracer.close("faults", "m1", first)
        second = tracer.open()
        clock.tick(0.002)
        tracer.close("faults", "m1", second)
        tracer.close_root("m1", root)

        (trace,) = tracer.traces()
        assert [child.name for child in trace.children] == ["faults", "faults"]
        # Completion order and start order agree here; walk() sorts by
        # start time either way.
        starts = [span.start_ms for _, span in trace.walk()][1:]
        assert starts == sorted(starts)

    def test_start_times_share_one_origin(self, tracer, clock):
        first = tracer.open_root({})
        tracer.close_root("m1", first)
        clock.tick(0.010)
        second = tracer.open_root({})
        tracer.close_root("m2", second)

        one, two = tracer.traces()
        assert one.start_ms == pytest.approx(0.0)
        assert two.start_ms == pytest.approx(10.0)

    def test_consecutive_roots_do_not_leak_children(self, tracer):
        root = tracer.open_root({})
        layer = tracer.open()
        tracer.close("direct", "m1", layer)
        tracer.close_root("m1", root)
        root = tracer.open_root({})
        tracer.close_root("m2", root)

        one, two = tracer.traces()
        assert len(one.children) == 1
        assert two.children == ()


# ----------------------------------------------------------------------
# The wrapper
# ----------------------------------------------------------------------
class TestTracingInvoker:
    def test_outputs_pass_through_untouched(self, tracer):
        outputs = {"out": "value"}
        inner = SimpleNamespace(invoke=lambda module, ctx, bindings: outputs)
        wrapped = tracer.wrap("direct", inner)
        assert isinstance(wrapped, TracingInvoker)

        token = tracer.open_root({})
        module = SimpleNamespace(module_id="m1")
        assert wrapped.invoke(module, None, {}) is outputs
        tracer.close_root("m1", token)
        (trace,) = tracer.traces()
        (direct,) = trace.children
        assert direct.outcome == "ok" and direct.detail == ""

    def test_exceptions_cross_as_outcome_and_detail(self, tracer):
        def explode(module, ctx, bindings):
            raise ValueError("supply exploded")

        wrapped = tracer.wrap("direct", SimpleNamespace(invoke=explode))
        module = SimpleNamespace(module_id="m1")
        token = tracer.open_root({})
        with pytest.raises(ValueError, match="supply exploded"):
            wrapped.invoke(module, None, {})
        tracer.close_root("m1", token, "ValueError", "supply exploded")

        (trace,) = tracer.traces()
        assert trace.outcome == "ValueError"
        assert trace.detail == "supply exploded"
        (direct,) = trace.children
        assert direct.outcome == "ValueError"
        assert direct.detail == "supply exploded"


# ----------------------------------------------------------------------
# Root annotation
# ----------------------------------------------------------------------
class TestRootAttributes:
    def test_annotations_seal_into_the_exported_trace(self, tracer):
        token = tracer.open_root({"provider": "EBI"})
        tracer.annotate_root("cache", "miss")
        tracer.incr_root("retries")
        tracer.incr_root("retries")
        tracer.close_root("m1", token)

        (trace,) = tracer.traces()
        assert trace.attributes == {
            "provider": "EBI", "cache": "miss", "retries": 2,
        }

    def test_annotation_without_an_active_root_is_a_no_op(self, tracer):
        tracer.annotate_root("cache", "miss")
        tracer.incr_root("retries")
        assert tracer.traces() == ()


# ----------------------------------------------------------------------
# Ring buffer + sink
# ----------------------------------------------------------------------
class TestRing:
    def test_eviction_is_counted(self, clock):
        tracer = Tracer(clock=clock, max_traces=2)
        for module_id in ("m1", "m2", "m3"):
            tracer.close_root(module_id, tracer.open_root({}))

        snapshot = tracer.snapshot()
        assert snapshot["traces_kept"] == 2
        assert snapshot["dropped_traces"] == 1
        assert [trace.module_id for trace in tracer.traces()] == ["m2", "m3"]

    def test_traces_returns_fresh_trees(self, tracer):
        root = tracer.open_root({"provider": "EBI"})
        layer = tracer.open()
        tracer.close("direct", "m1", layer)
        tracer.close_root("m1", root)

        stolen = tracer.traces()[0]
        stolen.attributes["provider"] = "corrupted"
        stolen.children[0].outcome = "corrupted"
        clean = tracer.traces()[0]
        assert clean.attributes == {"provider": "EBI"}
        assert clean.children[0].outcome == "ok"

    def test_clear_keeps_counters(self, clock):
        tracer = Tracer(clock=clock, max_traces=1)
        tracer.close_root("m1", tracer.open_root({}))
        tracer.close_root("m2", tracer.open_root({}))
        tracer.clear()
        snapshot = tracer.snapshot()
        assert snapshot["traces_kept"] == 0
        assert snapshot["dropped_traces"] == 1

    def test_capacity_must_be_positive(self, clock):
        with pytest.raises(ValueError, match="max_traces"):
            Tracer(clock=clock, max_traces=0)

    @pytest.mark.parametrize("max_traces", [1, 7, 100])
    def test_concurrent_roots_are_all_kept_or_counted(self, max_traces):
        """Roots close from many threads at once, appending to the ring
        without its lock while readers trim it: every trace is either
        kept or counted as dropped, never lost or counted twice."""
        import sys

        tracer = Tracer(max_traces=max_traces)
        n_threads, per_thread = 8, 3000
        seen = []

        def close_roots(worker):
            for n in range(per_thread):
                tracer.close_root(f"w{worker}-{n}", tracer.open_root({"n": n}))
                if n % 50 == 0:
                    snapshot = tracer.snapshot()
                    seen.append(snapshot["traces_kept"] <= max_traces)
                    seen.append(len(tracer.traces()) <= max_traces)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=close_roots, args=(worker,))
                for worker in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(seen)
        snapshot = tracer.snapshot()
        assert snapshot["traces_kept"] == max_traces
        assert snapshot["dropped_traces"] == n_threads * per_thread - max_traces
        kept = tracer.traces()
        assert len({trace.module_id for trace in kept}) == max_traces

    def test_sink_sees_every_completed_root(self, clock):
        recorded = []
        tracer = Tracer(clock=clock, sink=recorded.append)
        token = tracer.open_root({})
        layer = tracer.open()
        tracer.close("direct", "m1", layer)
        tracer.close_root("m1", token)

        (span,) = recorded
        assert isinstance(span, Span)
        assert span.name == "invoke"
        assert span == tracer.traces()[0]


# ----------------------------------------------------------------------
# The watchdog hop: fork / seed / unseed / join / abandon
# ----------------------------------------------------------------------
def _run_worker(target):
    worker = threading.Thread(target=target)
    worker.start()
    return worker


class TestForkJoin:
    def test_join_attaches_worker_spans_under_the_waiting_layer(self, tracer):
        root = tracer.open_root({})
        watchdog = tracer.open()
        fork = tracer.fork()

        def run():
            tracer.seed(fork)
            inner = tracer.open()
            tracer.close("direct", "m1", inner)
            tracer.unseed(fork)

        _run_worker(run).join()
        tracer.join(fork)
        tracer.close("watchdog", "m1", watchdog)
        tracer.close_root("m1", root)

        (trace,) = tracer.traces()
        names = [span.name for _, span in trace.walk()]
        assert names == ["invoke", "watchdog", "direct"]
        assert tracer.snapshot()["late_spans"] == 0

    def test_abandon_drops_a_late_deposit(self, tracer):
        root = tracer.open_root({})
        watchdog = tracer.open()
        fork = tracer.fork()
        recorded = threading.Event()
        release = threading.Event()

        def run():
            tracer.seed(fork)
            inner = tracer.open()
            tracer.close("direct", "m1", inner)
            recorded.set()
            assert release.wait(5)
            tracer.unseed(fork)  # arrives after the abandon

        worker = _run_worker(run)
        assert recorded.wait(5)
        tracer.abandon(fork)
        tracer.close("watchdog", "m1", watchdog, "ModuleTimeoutError", "budget")
        tracer.close_root("m1", root, "ModuleTimeoutError", "budget")
        release.set()
        worker.join()

        (trace,) = tracer.traces()
        assert trace.find("direct") == []
        assert trace.outcome == "ModuleTimeoutError"
        assert tracer.snapshot()["late_spans"] == 1

    def test_abandon_after_deposit_counts_the_adopted_spans(self, tracer):
        root = tracer.open_root({})
        fork = tracer.fork()

        def run():
            tracer.seed(fork)
            inner = tracer.open()
            tracer.close("direct", "m1", inner)
            tracer.unseed(fork)  # deposits in time...

        _run_worker(run).join()
        tracer.abandon(fork)  # ...but the caller abandons anyway
        tracer.close_root("m1", root)

        (trace,) = tracer.traces()
        assert trace.children == ()
        assert tracer.snapshot()["late_spans"] == 1

    def test_seed_discards_stale_spans_from_a_reused_thread(self, tracer):
        root = tracer.open_root({})
        abandoned_fork, fresh_fork = tracer.fork(), tracer.fork()
        tracer.abandon(abandoned_fork)

        def run():
            # An abandoned call's leftovers, never deposited...
            tracer.seed(abandoned_fork)
            stale = tracer.open()
            tracer.close("direct", "stale", stale)
            # ...must not leak into the next call on a reused thread.
            tracer.seed(fresh_fork)
            fresh = tracer.open()
            tracer.close("direct", "fresh", fresh)
            tracer.unseed(fresh_fork)

        _run_worker(run).join()
        tracer.join(fresh_fork)
        tracer.close_root("m1", root)

        (trace,) = tracer.traces()
        assert [child.module_id for child in trace.children] == ["fresh"]


# ----------------------------------------------------------------------
# Span serialization
# ----------------------------------------------------------------------
class TestSpanSerialization:
    def _tree(self) -> Span:
        root = Span("invoke", "m1", 1.5, {"provider": "EBI", "retries": 2})
        root.duration_ms = 7.25
        root.outcome = "ValueError"
        root.detail = "supply exploded"
        child = Span("direct", "m1", 2.0)
        child.duration_ms = 6.0
        root.children = [child]
        return root

    def test_round_trip_preserves_the_tree(self):
        root = self._tree()
        rebuilt = Span.from_dict(root.to_dict())
        assert rebuilt == root
        assert rebuilt.to_dict() == root.to_dict()

    def test_empty_fields_are_omitted_from_the_wire_form(self):
        leaf = Span("direct", "m1", 0.0)
        data = leaf.to_dict()
        assert set(data) == {
            "name", "module_id", "start_ms", "duration_ms", "outcome",
        }

    def test_find_and_tree_size(self):
        root = self._tree()
        assert root.tree_size == 2
        assert [span.name for span in root.find("direct")] == ["direct"]
        assert root.find("watchdog") == []


# ----------------------------------------------------------------------
# Engine wiring: the span shapes real stacks produce
# ----------------------------------------------------------------------
def _traced_generation(setup, n=2, **config):
    engine = InvocationEngine(EngineConfig(tracing=True, **config))
    generator = ExampleGenerator(setup.ctx, setup.pool, engine=engine)
    reports = generator.generate_many(setup.catalog[:n])
    return engine, generator, reports


class TestEngineTracing:
    def test_bare_stack_records_root_only_spans(self, setup):
        engine, _, reports = _traced_generation(setup)
        traces = engine.tracer.traces()
        assert reports and traces
        assert all(trace.name == "invoke" for trace in traces)
        assert all(trace.children == () for trace in traces)
        assert all(
            trace.attributes.get("provider") for trace in traces
        )

    def test_layered_stack_separates_the_direct_round_trip(self, setup):
        engine, generator, _ = _traced_generation(setup, cache_size=256)
        cold = engine.tracer.traces()
        assert all(
            [span.name for _, span in trace.walk()] == ["invoke", "direct"]
            for trace in cold
        )
        assert all(trace.attributes["cache"] == "miss" for trace in cold)

        engine.tracer.clear()
        generator.generate_many(setup.catalog[:2])  # warm pass
        warm = engine.tracer.traces()
        assert warm
        # A cache hit never reaches the inner stack: no direct span.
        assert all(trace.children == () for trace in warm)
        assert all(trace.attributes["cache"] == "hit" for trace in warm)

    def test_full_stack_produces_the_documented_layer_chain(self, setup):
        engine, _, _ = _traced_generation(
            setup,
            n=1,
            cache_size=256,
            retry=RetryPolicy(seed=7),
            fault_plan=FaultPlan(seed=7),
            conformance=ConformancePolicy(),
            watchdog=WatchdogPolicy(budget=30.0),
            breaker=BreakerPolicy(),
        )
        trace = engine.tracer.traces()[0]
        # A clean one-shot call crosses every layer exactly once, in
        # the documented order — the watchdog's worker-thread spans
        # included, despite the thread hop.
        assert [span.name for _, span in trace.walk()] == list(LAYERS)
        assert engine.tracer.snapshot()["late_spans"] == 0

    def test_watchdog_timeout_trace_has_no_inner_spans(self, setup):
        engine, _, _ = _traced_generation(
            setup,
            n=1,
            fault_plan=FaultPlan(seed=7, latency_ms=80.0, latency_jitter=0.0),
            watchdog=WatchdogPolicy(budget=0.005),
        )
        traces = engine.tracer.traces()
        assert traces
        assert all(trace.outcome == "ModuleTimeoutError" for trace in traces)
        # The worker is still asleep when the trace exports; its spans
        # arrive late and are dropped, never grafted onto the tree.
        assert all(trace.find("direct") == [] for trace in traces)
        deadline = time.time() + 10
        while time.time() < deadline:
            if engine.tracer.snapshot()["late_spans"] >= len(traces):
                break
            time.sleep(0.01)
        assert engine.tracer.snapshot()["late_spans"] >= len(traces)

    def test_traced_reports_match_untraced(self, setup):
        plain = ExampleGenerator(
            setup.ctx, setup.pool, engine=InvocationEngine(EngineConfig())
        )
        _, _, traced_reports = _traced_generation(setup, n=3)
        assert traced_reports == plain.generate_many(setup.catalog[:3])
