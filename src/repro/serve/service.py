"""Annotation-as-a-service: the business logic behind the HTTP layer.

:class:`AnnotationService` wraps the deterministic world (§2 catalog,
ontology, instance pool) plus a resilient
:class:`~repro.engine.invoker.InvocationEngine` behind three verbs:

``register(module_id)``
    Admit a catalog (or decayed) module into the serving set.  Serving
    is opt-in per module: a request against an unregistered module is a
    client error, not a silent catalog lookup — the service's surface
    is exactly what the operator registered.
``generate(module_id)``
    §3 data-example generation through the engine (cache, retry,
    breaker, watchdog, conformance all apply), memoized per module so a
    hot endpoint serves repeated annotations from memory.  Memoization
    can be disabled for load tests that must produce real work per
    request.
``match(module_id)``
    §6 pairwise behavior comparison of the module's examples against
    every available catalog candidate, each candidate call through the
    same engine.

Everything here is transport-agnostic and thread-safe — the generator
and every engine layer already tolerate concurrent callers — so the
HTTP handler threads call straight in.  Request deadlines arrive
ambiently via :func:`repro.engine.deadline_scope`; the engine's
watchdog clamps each invocation budget to whatever remains.
"""

from __future__ import annotations

import threading

from repro.campaign.journal import report_to_dict
from repro.core.generation import ExampleGenerator
from repro.core.matching import find_matches
from repro.engine import (
    ConformancePolicy,
    EngineConfig,
    FaultPlan,
    InvocationEngine,
    RetryPolicy,
    WatchdogPolicy,
)
from repro.modules.catalog import (
    build_decayed_modules,
    default_catalog,
    default_context,
)
from repro.ontology import build_mygrid_ontology
from repro.pool import InstancePool, default_factory
from repro.serve.sampling import HTTP_CAMPAIGN_ID, open_http_campaign


class UnknownModuleError(KeyError):
    """The module id exists in neither the catalog nor the decayed set."""


class UnregisteredModuleError(KeyError):
    """The module exists but was never registered with the service."""


class AnnotationService:
    """The annotation engine behind the HTTP endpoints.

    Args:
        seed: Master seed; the whole world is rebuilt deterministically
            from it, exactly like the CLI.
        memoize: Serve repeated ``generate`` calls for the same module
            from memory.  Disable for load testing, where every request
            must exercise the engine.
        watchdog_budget: Hard wall-clock budget per invocation, seconds.
            Always enabled for a service — a hung provider must never
            pin a handler thread forever — and additionally clamped to
            each request's remaining deadline.
        latency_ms / fault_rate: Injected provider latency and transient
            failure probability (:class:`~repro.engine.faults.FaultPlan`),
            used by the load harness to shape realistic saturation.
        state: A :class:`~repro.serve.state.ServeStateStore` making
            registration and memoized reports durable and fleet-shared
            in its journal's :data:`~repro.serve.sampling.HTTP_CAMPAIGN_ID`
            row: registrations are the row's planned modules, honored by
            every replica, and memoized ``generate`` answers are served
            from the row's ``done`` entries before any regeneration.
        kill_at_request: Arm serving process-chaos — the whole process
            dies at the Kth governed HTTP request (0 disables).  Folded
            into the engine's :class:`FaultPlan`; the supervisor only
            arms it on a replica's first spawn so the restarted replica
            serves normally.
    """

    def __init__(
        self,
        seed: int = 2014,
        memoize: bool = True,
        watchdog_budget: float = 5.0,
        latency_ms: float = 0.0,
        fault_rate: float = 0.0,
        state=None,
        kill_at_request: int = 0,
    ) -> None:
        self.seed = seed
        self.memoize = memoize
        self.state = state
        if state is not None:
            open_http_campaign(state.journal, seed)
        self.ctx = default_context(seed)
        self.catalog = list(default_catalog())
        self.pool = InstancePool.bootstrap(
            default_factory(seed), build_mygrid_ontology()
        )
        self._by_id = {module.module_id: module for module in self.catalog}
        for module in build_decayed_modules():
            self._by_id.setdefault(module.module_id, module)
        fault_plan = None
        if latency_ms > 0 or fault_rate > 0 or kill_at_request > 0:
            fault_plan = FaultPlan(
                seed=seed,
                transient_failure_rate=fault_rate,
                latency_ms=latency_ms,
                kill_at_request=kill_at_request,
            )
        self.engine = InvocationEngine(
            EngineConfig(
                cache_size=4096,
                retry=RetryPolicy(seed=seed) if fault_rate > 0 else None,
                fault_plan=fault_plan,
                conformance=ConformancePolicy(probe_seed=seed),
                watchdog=WatchdogPolicy(budget=watchdog_budget),
                # Span trees per invocation: HTTP trace ids join them
                # through ambient span attributes.
                tracing=True,
            )
        )
        self.generator = ExampleGenerator(self.ctx, self.pool, engine=self.engine)
        self._lock = threading.Lock()
        self._registered: "dict[str, object]" = {}
        self._reports: "dict[str, object]" = {}

    # ------------------------------------------------------------------
    def _lookup(self, module_id: str):
        try:
            return self._by_id[module_id]
        except KeyError:
            raise UnknownModuleError(
                f"no module {module_id!r} in the catalog or decayed set"
            ) from None

    def _registered_module(self, module_id: str):
        with self._lock:
            module = self._registered.get(module_id)
        if module is None and module_id in self.modules():
            # Another replica registered it — honor the shared set and
            # hydrate this process's memory.
            module = self._lookup(module_id)
            with self._lock:
                self._registered[module_id] = module
        if module is None:
            self._lookup(module_id)  # distinguish unknown from unregistered
            raise UnregisteredModuleError(
                f"module {module_id!r} is not registered "
                "(POST /v1/modules first)"
            )
        return module

    # ------------------------------------------------------------------
    def register(self, module_id: str) -> dict:
        """Admit a module into the serving set (idempotent).

        Returns:
            The module's public description, with ``"registered"``
            reporting whether this call changed anything.
        """
        module = self._lookup(module_id)
        with self._lock:
            fresh = module_id not in self._registered
            self._registered[module_id] = module
        if self.state is not None:
            # Fleet-wide freshness: the journal row decides whether any
            # replica (this one included, before a restart) already
            # registered the module.
            fresh = self.state.journal.add_module(HTTP_CAMPAIGN_ID, module_id)
        return {
            "module_id": module.module_id,
            "name": module.name,
            "category": module.category.value,
            "interface": module.interface.value,
            "provider": module.provider,
            "n_behavior_classes": module.behavior.n_classes,
            "registered": fresh,
        }

    def modules(self) -> "list[str]":
        """Registered module ids, sorted (fleet-wide when durable)."""
        with self._lock:
            local = set(self._registered)
        if self.state is not None:
            local.update(self.state.journal.meta(HTTP_CAMPAIGN_ID).module_ids)
        return sorted(local)

    def note_request(self) -> None:
        """Tick the serving-chaos request clock (no-op unless armed)."""
        injector = self.engine.fault_injector
        if injector is not None:
            injector.note_request()

    def _report(self, module_id: str):
        """``(report, cached)``: the memoized report — from memory, else
        from the shared store — or a fresh generation, memoized in both.

        A store hit is hydrated into this process's memory, so a replica
        pays the JSON round-trip once per module.
        """
        module = self._registered_module(module_id)
        if not self.memoize:
            return self.generator.generate(module), False
        with self._lock:
            report = self._reports.get(module_id)
        if report is None and self.state is not None:
            entry = self.state.journal.entry(HTTP_CAMPAIGN_ID, module_id)
            report = entry.report if entry is not None else None
            if report is not None:
                with self._lock:
                    self._reports[module_id] = report
        if report is not None:
            return report, True
        report = self.generator.generate(module)
        with self._lock:
            self._reports[module_id] = report
        if self.state is not None:
            self.state.journal.record_done(HTTP_CAMPAIGN_ID, report)
        return report, False

    # ------------------------------------------------------------------
    def generate(self, module_id: str) -> dict:
        """§3 example generation through the engine, memoized.

        Raises:
            UnknownModuleError / UnregisteredModuleError: Client errors.
            Engine exceptions (e.g. ``ModuleTimeoutError`` on deadline
            exhaustion) propagate for the transport layer to map.
        """
        report, cached = self._report(module_id)
        return self._generation_payload(report, cached)

    @staticmethod
    def _generation_payload(report, cached: bool) -> dict:
        return {
            "module_id": report.module_id,
            "n_examples": report.n_examples,
            "invalid_combinations": report.invalid_combinations,
            "unavailable_combinations": report.unavailable_combinations,
            "timed_out_combinations": report.timed_out_combinations,
            "quarantined_combinations": report.quarantined_combinations,
            "cached": cached,
            "report": report_to_dict(report),
        }

    def match(self, module_id: str) -> dict:
        """§6 behavior comparison against every available candidate.

        Candidate calls go through the engine, so the watchdog, the
        request deadline, the fault plan, the cache and telemetry all
        apply; a call that still fails counts as not agreeing.
        """
        module = self._registered_module(module_id)
        examples = self._report(module_id)[0].examples
        reports = find_matches(
            self.ctx, module, examples, self.catalog, invoker=self.engine
        )
        return {
            "module_id": module_id,
            "n_examples": len(examples),
            "matches": [
                {
                    "candidate_id": report.candidate_id,
                    "kind": report.kind.value,
                    "n_examples": report.n_examples,
                    "n_agreeing": report.n_agreeing,
                    "relaxed_mapping": report.mapping.relaxed,
                }
                for report in reports
            ],
        }

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The engine's merged stats snapshot."""
        return self.engine.stats()
