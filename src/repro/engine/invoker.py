"""The invoker protocol and the invocation engine facade.

Every module call in the system flows through an :class:`Invoker` — the
single choke point where caching, retry, fault injection and telemetry
compose.  Callers (the generation heuristic, workflow enactment, §6
matching and repair, composition, the served endpoints, the
experiments) hold an invoker — an :class:`InvocationEngine`, or the bare
:class:`DirectInvoker` where no engine is wanted — and call its
``invoke``.  :class:`DirectInvoker` is the only caller of
``invoke_via_interface``.

The stack, innermost first::

    DirectInvoker              the real supply-interface round trip
      FaultInjectingInvoker    (optional) seeded decay weather
        ConformingInvoker      (optional) output validation + probes
          WatchdogInvoker      (optional) hard wall-clock budget
            RetryingInvoker    (optional) backoff + deadline
              CircuitBreakingInvoker  (optional) per-provider fast-fail
                InvocationCache    (optional) memoization, checked first
                  Telemetry        always-on accounting around the call

The breaker deliberately sits *outside* the retry layer: once a
provider's circuit is open, calls fail fast without consuming any retry
budget — a blacked-out provider costs O(probe interval), not O(catalog).
The conformance checker sits *inside* the watchdog (probe re-invocations
count against the same budget) and *outside* the fault injector (so
injected output corruption is caught exactly like a real lying module).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

from repro.engine.breaker import (
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    CircuitBreakingInvoker,
)
from repro.engine.cache import InvocationCache
from repro.engine.conformance import ConformancePolicy, ConformingInvoker
from repro.engine.faults import FaultInjectingInvoker, FaultPlan
from repro.engine.health import ModuleHealthRegistry
from repro.engine.retry import RetryingInvoker, RetryPolicy
from repro.engine.scheduler import BatchScheduler
from repro.engine.telemetry import Telemetry, default_clock
from repro.engine.watchdog import WatchdogInvoker, WatchdogPolicy
from repro.modules.errors import (
    InvalidInputError,
    MalformedOutputError,
    ModuleInvocationError,
    ModuleTimeoutError,
    ModuleUnavailableError,
)
from repro.modules.interfaces import invoke_via_interface
from repro.modules.model import Module, ModuleContext
from repro.values import TypedValue, bindings_json


@runtime_checkable
class Invoker(Protocol):
    """Anything that can execute a module on input bindings."""

    def invoke(
        self, module: Module, ctx: ModuleContext, bindings: dict[str, TypedValue]
    ) -> dict[str, TypedValue]:
        """Execute ``module`` on ``bindings``; returns output bindings.

        Raises:
            ModuleInvocationError: On abnormal termination or
                unavailability, exactly like the supply interfaces.
        """
        ...  # pragma: no cover - protocol


class DirectInvoker:
    """The baseline invoker: one supply-interface round trip, no frills.

    Stateless, so one instance serves any number of callers: it is the
    engine's innermost layer and the default of every caller that takes
    an :class:`Invoker` but was handed none.
    """

    def invoke(
        self, module: Module, ctx: ModuleContext, bindings: dict[str, TypedValue]
    ) -> dict[str, TypedValue]:
        return invoke_via_interface(module, ctx, bindings)


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs of one :class:`InvocationEngine`.

    Attributes:
        parallelism: Worker threads of the batch scheduler (1 = serial).
        cache_size: LRU capacity of the invocation cache; ``None``
            disables caching entirely.
        negative_ttl: Seconds a negative-cache entry stays replayable;
            ``None`` keeps rejections until a repair bumps the cache
            generation.
        retry: Retry policy for transient failures; ``None`` disables.
        fault_plan: Seeded fault injection; ``None`` disables.
        breaker: Per-provider circuit-breaker policy; ``None`` disables.
        conformance: Output-conformance validation (and optional
            nondeterminism probing); ``None`` disables.
        watchdog: Hard wall-clock budget per invocation; ``None``
            disables.
        tracing: Build a per-invocation span tree around every call
            (:mod:`repro.obs.tracing`).  Off by default — the untraced
            stack is byte-identical to the pre-observability one and
            pays no tracing cost at all.
        max_traces: Ring-buffer capacity for completed traces kept in
            memory when tracing is on.
    """

    parallelism: int = 1
    cache_size: "int | None" = None
    negative_ttl: "float | None" = None
    retry: "RetryPolicy | None" = None
    fault_plan: "FaultPlan | None" = None
    breaker: "BreakerPolicy | None" = None
    conformance: "ConformancePolicy | None" = None
    watchdog: "WatchdogPolicy | None" = None
    tracing: bool = False
    max_traces: int = 1000


class _TelemetryHooks:
    """The wrapped layers' callbacks into the engine's counters.

    They live apart from :class:`InvocationEngine` so that the layers
    hold no reference back to the engine: an engine dropped by its last
    user is freed at once by reference counting, with its cache,
    instead of waiting for the cyclic garbage collector.
    """

    def __init__(self, telemetry: Telemetry, tracer) -> None:
        self.telemetry = telemetry
        self.tracer = tracer

    def fault(self, module: Module, detail: str) -> None:
        self.telemetry.account("faults_injected")

    def timeout(self, module: Module, budget: float) -> None:
        self.telemetry.account("watchdog_timeouts")

    def violation(self, module: Module, error: MalformedOutputError) -> None:
        self.telemetry.account("conformance_violations")

    def retry(
        self, module: Module, attempt: int, error: ModuleUnavailableError
    ) -> None:
        self.telemetry.account("retries")
        if self.tracer is not None:
            self.tracer.incr_root("retries")

    def exhausted(self, module: Module, error: ModuleUnavailableError) -> None:
        self.telemetry.account("retries_exhausted")

    def transition(
        self, provider: str, old: BreakerState, new: BreakerState
    ) -> None:
        # A half-open probe has no counter; the ``breaker`` snapshot
        # shows the circuit's state.
        if new is BreakerState.OPEN:
            self.telemetry.account("breaker_opened")
        elif new is BreakerState.CLOSED:
            self.telemetry.account("breaker_closed")

    def fast_fail(self, module: Module) -> None:
        self.telemetry.account("breaker_fast_fails")


class InvocationEngine:
    """The execution layer all module invocations flow through."""

    def __init__(
        self,
        config: EngineConfig = EngineConfig(),
        invoker: "Invoker | None" = None,
        telemetry: "Telemetry | None" = None,
        health: "ModuleHealthRegistry | None" = None,
        tracer=None,
        clock: Callable[[], float] = default_clock,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        """Args:
            config: Cache / retry / fault / breaker / parallelism knobs.
            invoker: Innermost invoker (default: :class:`DirectInvoker`).
            telemetry: Shared telemetry sink (default: a fresh one).
            health: Module-health registry fed with every final outcome
                (default: a fresh one).
            tracer: Span recorder (:class:`repro.obs.tracing.Tracer`);
                passing one implies tracing even when ``config.tracing``
                is false.  With neither, the stack is built untraced and
                the hot path performs no tracing work.
            clock: Monotonic clock, injectable for tests.
            sleep: Sleep function used by retry backoff and injected
                latency, injectable for tests.
        """
        self.config = config
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.health = health if health is not None else ModuleHealthRegistry()
        self.scheduler = BatchScheduler(config.parallelism)
        self._clock = clock
        if tracer is None and config.tracing:
            from repro.obs.tracing import Tracer

            tracer = Tracer(clock=clock, max_traces=config.max_traces)
        self.tracer = tracer

        def traced(layer: str, inner: Invoker) -> Invoker:
            return tracer.wrap(layer, inner) if tracer is not None else inner

        stack: Invoker = invoker if invoker is not None else DirectInvoker()
        # The ``direct`` span separates the supply-interface round trip
        # from everything stacked on top of it.  In a bare stack there
        # is no "on top": the root span already times the direct call
        # exactly, so wrapping it would double the tracing cost of
        # every invocation to record a span that duplicates its parent.
        layered = (
            config.cache_size is not None
            or config.fault_plan is not None
            or config.conformance is not None
            or config.watchdog is not None
            or config.retry is not None
            or config.breaker is not None
        )
        if layered:
            stack = traced("direct", stack)
        hooks = _TelemetryHooks(self.telemetry, tracer)
        self.fault_injector = None
        if config.fault_plan is not None:
            stack = self.fault_injector = FaultInjectingInvoker(
                stack, config.fault_plan, sleep=sleep, on_fault=hooks.fault
            )
            stack = traced("faults", stack)
        self.conformance = None
        if config.conformance is not None:
            stack = self.conformance = ConformingInvoker(
                stack, config.conformance, on_violation=hooks.violation
            )
            stack = traced("conformance", stack)
        self.watchdog = None
        if config.watchdog is not None:
            stack = self.watchdog = WatchdogInvoker(
                stack, config.watchdog, on_timeout=hooks.timeout,
                tracer=tracer,
            )
            stack = traced("watchdog", stack)
        if config.retry is not None:
            stack = RetryingInvoker(
                stack,
                config.retry,
                clock=clock,
                sleep=sleep,
                on_retry=hooks.retry,
                on_exhausted=hooks.exhausted,
            )
            stack = traced("retry", stack)
        self.breaker = (
            CircuitBreaker(
                config.breaker, clock=clock, on_transition=hooks.transition
            )
            if config.breaker is not None
            else None
        )
        if self.breaker is not None:
            stack = CircuitBreakingInvoker(
                stack, self.breaker, on_fast_fail=hooks.fast_fail
            )
            stack = traced("breaker", stack)
        self.invoker = stack
        self.cache = (
            InvocationCache(
                config.cache_size, negative_ttl=config.negative_ttl, clock=clock
            )
            if config.cache_size is not None
            else None
        )

    # ------------------------------------------------------------------
    def invoke(
        self, module: Module, ctx: ModuleContext, bindings: dict[str, TypedValue]
    ) -> dict[str, TypedValue]:
        """Invoke ``module`` through the configured stack.

        Raises:
            InvalidInputError: Abnormal termination (possibly replayed
                from the negative cache).
            ModuleTimeoutError: The watchdog abandoned the call.
            ModuleUnavailableError: Transient failure surviving retries.
            MalformedOutputError: The outputs violate the declared
                interface (never cached — the module answered, but the
                answer must not be admitted anywhere).
        """
        tracer = self.tracer
        if tracer is None:
            return self._invoke(module, ctx, bindings, None)
        # The attribute dict is live for the duration of the call: the
        # cache lookup below and the retry hook annotate it before
        # close_root seals it into the exported trace.
        attributes = {"provider": module.provider}
        token = tracer.open_root(attributes)
        try:
            outputs = self._invoke(module, ctx, bindings, attributes)
        except BaseException as error:
            tracer.close_root(
                module.module_id, token, type(error).__name__, str(error)
            )
            raise
        tracer.close_root(module.module_id, token)
        return outputs

    def _invoke(
        self,
        module: Module,
        ctx: ModuleContext,
        bindings: dict[str, TypedValue],
        trace_attrs: "dict | None",
    ) -> dict[str, TypedValue]:
        cache = self.cache
        # A withdrawn module must answer as withdrawn, not from what it
        # answered while it was supplied: the cache is neither consulted
        # nor filled for it.
        if cache is not None and module.available:
            # canonical_key, inlined: this runs on every engine call.
            key = (module.module_id, bindings_json(bindings))
            outcome = cache.lookup(key)
            if outcome is not None:
                if outcome.error_type is None:
                    self.telemetry.account("cache_hits")
                    if trace_attrs is not None:
                        trace_attrs["cache"] = "hit"
                    # Shallow copy: callers may mutate the mapping they receive.
                    return dict(outcome.outputs)
                self.telemetry.account("cache_negative_hits")
                if trace_attrs is not None:
                    trace_attrs["cache"] = "negative-hit"
                return outcome.replay()
            self.telemetry.account("cache_misses")
            if trace_attrs is not None:
                trace_attrs["cache"] = "miss"
        else:
            key = None

        self.telemetry.account("calls")
        start = self._clock()
        try:
            outputs = self.invoker.invoke(module, ctx, bindings)
        except InvalidInputError as error:
            self._account("invalid", module, start)
            if key is not None:
                cache.store_failure(key, error)
            raise
        except ModuleTimeoutError:
            # No answer inside the budget: transient, never cached.
            self._account("timeout", module, start)
            raise
        except ModuleUnavailableError:
            # Transient: never cached.
            self._account("unavailable", module, start)
            raise
        except MalformedOutputError:
            # The module answered but lied: quarantine material, never
            # cached (a repair should get a fresh look) and never
            # admitted as a success.
            self._account("malformed", module, start)
            raise
        except ModuleInvocationError:
            self._account("transport_error", module, start)
            raise
        self._account("ok", module, start)
        if key is not None:
            cache.store_success(key, outputs)
        return outputs

    def _account(self, outcome: str, module: Module, start: float) -> None:
        latency_ms = (self._clock() - start) * 1000.0
        self.telemetry.account(outcome, latency_ms)
        self.health.observe(module.module_id, module.provider, outcome, latency_ms)

    # ------------------------------------------------------------------
    def map(self, fn, items) -> list:
        """Run ``fn`` over ``items`` on this engine's scheduler."""
        return self.scheduler.map(fn, items)

    def stats(self) -> dict:
        """Merged snapshot: telemetry plus cache / breaker / health."""
        snapshot = self.telemetry.snapshot()
        if self.cache is not None:
            snapshot["cache"] = {
                "size": len(self.cache),
                "maxsize": self.cache.maxsize,
                "hits": self.cache.stats.hits,
                "negative_hits": self.cache.stats.negative_hits,
                "misses": self.cache.stats.misses,
                "evictions": self.cache.stats.evictions,
                "negative_expired": self.cache.stats.negative_expired,
                "hit_rate": self.cache.stats.hit_rate,
            }
        if self.breaker is not None:
            snapshot["breaker"] = self.breaker.snapshot()
        if self.watchdog is not None:
            snapshot["watchdog"] = self.watchdog.snapshot()
        if self.conformance is not None:
            snapshot["conformance"] = self.conformance.snapshot()
        if self.tracer is not None:
            snapshot["tracing"] = self.tracer.snapshot()
        snapshot["health"] = self.health.snapshot()
        return snapshot

    def render_stats(self) -> str:
        """Human-readable accounting (the report's invocation-cost section)."""
        lines = [self.telemetry.render()]
        if self.cache is not None:
            stats = self.cache.stats
            lines.append(
                f"  cache size:      {len(self.cache)}/{self.cache.maxsize} "
                f"entries, hit rate {stats.hit_rate:.1%}"
            )
        if self.breaker is not None:
            open_providers = self.breaker.open_providers()
            label = ", ".join(open_providers) if open_providers else "none"
            lines.append(f"  breaker:         open circuits: {label}")
        if self.watchdog is not None:
            stats = self.watchdog.stats
            lines.append(
                f"  watchdog:        budget {self.watchdog.policy.budget:g}s, "
                f"{stats.timeouts} timeouts "
                f"({stats.abandoned_in_flight} abandoned calls in flight)"
            )
        if self.conformance is not None:
            stats = self.conformance.stats
            lines.append(
                f"  conformance:     {stats.checked} checked, "
                f"{stats.violations} violations, "
                f"{stats.probes} probes ({stats.unstable} unstable)"
            )
        lines.append(
            f"  scheduler:       parallelism {self.scheduler.parallelism}"
        )
        return "\n".join(lines)
