"""Resilient whole-catalog generation campaigns.

A *campaign* is the §3 harvesting loop run as a long-lived job against a
decaying world (§6): it generates data examples for a planned list of
modules, journals every completed module (:mod:`repro.campaign.journal`),
fails fast on dark providers through the engine's circuit breaker, and
— when providers stay unreachable past the configured deadline —
degrades gracefully into a partial report with an explicit degradation
manifest instead of failing the whole run.

Execution semantics:

* **Checkpoint/resume.**  ``run`` journals each module as it completes;
  a killed campaign is continued by ``resume``, which reads only the
  journaled statuses and re-runs the unjournaled (and previously
  skipped) modules.  Because generation is deterministic per module and
  the final assembly is planned-order (the same input-ordered
  reassembly the batch scheduler uses), the finalized report of a
  killed-and-resumed campaign is byte-identical to an uninterrupted one.
* **Read-once finalize.**  ``finalize`` is the sharded merge's
  planned-order walk (:func:`repro.campaign.sharding.assemble_result`).
  The journal decides which modules are done or skipped; a done
  module's report is taken from memory when this ``run``/``resume``
  call committed it, and parsed from its journaled JSON only otherwise
  — so each report is parsed at most once per call, and a fresh run
  parses none.
* **Probe rounds.**  A module whose report is incomplete (its provider
  never answered some combinations) is not journaled done; the campaign
  sleeps one probe interval — letting the breaker's half-open probe
  through — and retries, until everything answered or the deadline ran
  out.
* **Degradation.**  Modules still unreachable at the deadline are
  journaled skipped, the campaign is finalized ``degraded``, and the
  report carries the manifest: every skipped module with its reason,
  the breaker state per provider, and the coverage impact.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.campaign.journal import CampaignJournal, report_json
from repro.core.generation import ExampleGenerator, GenerationReport
from repro.core.quarantine import QuarantineLog
from repro.engine import (
    BreakerPolicy,
    ConformancePolicy,
    EngineConfig,
    FaultPlan,
    InvocationEngine,
    RetryPolicy,
    WatchdogPolicy,
)
from repro.engine.telemetry import default_clock
from repro.modules.model import Module, ModuleContext
from repro.pool.pool import InstancePool


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of one campaign, journal-serializable for resume.

    Attributes:
        seed: Master seed — the world and the generator derive from it.
        parallelism: Scheduler worker threads (1 = serial).
        cache_size: Invocation-cache capacity (``None`` disables).
        max_attempts: Retry attempts per call.
        retry_base_delay: Backoff before the first retry, seconds.
        fault_rate: Injected transient-failure probability (testing).
        latency_ms: Injected mean latency per call (testing).
        blackout_providers: Providers starting blacked out (testing).
        blackout_calls: Failing calls served per blackout.
        permanent_blackouts: Providers that never recover (testing).
        failure_threshold: Breaker trip threshold (consecutive failures).
        probe_interval: Breaker probe interval and campaign re-probe
            sleep, in seconds.
        deadline: Wall-clock budget for riding out unreachable modules;
            ``None`` skips them after the first pass.
        limit: Only campaign the first N planned modules.
        watchdog_budget: Hard wall-clock budget per invocation, in
            seconds; ``None`` disables the watchdog.
        conformance: Validate every successful invocation's outputs
            against the module's declared interface (on by default —
            the whole catalog conforms, so honest modules pay only the
            check).
        probe_rate: Fraction of successful combinations to double-invoke
            for nondeterminism (0 disables).
        hang_providers: Providers whose calls hang (testing).
        stall_providers: Providers whose calls stall ``stall_ms``
            (testing); empty stalls every provider when ``stall_ms > 0``.
        stall_ms: Fixed extra delay per stalled call (testing).
        corrupt_providers: Providers whose outputs lose a parameter
            (testing).
        nondeterministic_providers: Providers whose outputs vary per
            call (testing).
        trace: Record one span tree per invocation and journal every
            completed trace (the flight recorder).  Off by default —
            the untraced engine pays no tracing cost.
        sample_interval: Seconds between longitudinal samples
            (:mod:`repro.obs.timeseries`); 0 disables sampling.  When
            enabled, every sample is journaled and the SLO evaluator
            runs over the ring, journaling alert transitions.
        baseline: Campaign id (in the same journal) whose reports are
            the behavioral baseline; at finalize, each fresh report is
            diffed against it (:mod:`repro.obs.drift`) and drifting
            modules raise drift alerts.  Empty disables.
        workers: Worker *processes* to shard the catalog across
            (:mod:`repro.campaign.supervisor`); 1 runs in-process.
        heartbeat_interval: Seconds between worker heartbeat commits
            into the shard journal.
        heartbeat_timeout: Heartbeat staleness past which the supervisor
            declares a worker wedged and kills it.
        max_restarts: Restarts allowed per shard before it is declared
            degraded and its remaining modules are journaled skipped.
        restart_backoff: Base delay before a shard restart, doubled per
            restart (exponential backoff).
        chaos_kill_at: Kill the worker process at its Nth invocation
            (process-chaos testing; 0 disables).
        chaos_kill_rate: Per-invocation probability of killing the
            worker process (seeded; testing).
        chaos_stall_after: Stop heartbeating (while staying alive) from
            the Nth invocation on — exercises the supervisor's wedged-
            worker detection (testing; 0 disables).
    """

    seed: int = 2014
    parallelism: int = 1
    cache_size: "int | None" = 4096
    max_attempts: int = 3
    retry_base_delay: float = 0.05
    fault_rate: float = 0.0
    latency_ms: float = 0.0
    blackout_providers: tuple = ()
    blackout_calls: int = 3
    permanent_blackouts: tuple = ()
    failure_threshold: int = 3
    probe_interval: float = 0.1
    deadline: "float | None" = None
    limit: "int | None" = None
    watchdog_budget: "float | None" = None
    conformance: bool = True
    probe_rate: float = 0.0
    hang_providers: tuple = ()
    stall_providers: tuple = ()
    stall_ms: float = 0.0
    corrupt_providers: tuple = ()
    nondeterministic_providers: tuple = ()
    trace: bool = False
    sample_interval: float = 0.0
    baseline: str = ""
    workers: int = 1
    heartbeat_interval: float = 0.5
    heartbeat_timeout: float = 10.0
    max_restarts: int = 3
    restart_backoff: float = 0.1
    chaos_kill_at: int = 0
    chaos_kill_rate: float = 0.0
    chaos_stall_after: int = 0

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "parallelism": self.parallelism,
            "cache_size": self.cache_size,
            "max_attempts": self.max_attempts,
            "retry_base_delay": self.retry_base_delay,
            "fault_rate": self.fault_rate,
            "latency_ms": self.latency_ms,
            "blackout_providers": list(self.blackout_providers),
            "blackout_calls": self.blackout_calls,
            "permanent_blackouts": list(self.permanent_blackouts),
            "failure_threshold": self.failure_threshold,
            "probe_interval": self.probe_interval,
            "deadline": self.deadline,
            "limit": self.limit,
            "watchdog_budget": self.watchdog_budget,
            "conformance": self.conformance,
            "probe_rate": self.probe_rate,
            "hang_providers": list(self.hang_providers),
            "stall_providers": list(self.stall_providers),
            "stall_ms": self.stall_ms,
            "corrupt_providers": list(self.corrupt_providers),
            "nondeterministic_providers": list(self.nondeterministic_providers),
            "trace": self.trace,
            "sample_interval": self.sample_interval,
            "baseline": self.baseline,
            "workers": self.workers,
            "heartbeat_interval": self.heartbeat_interval,
            "heartbeat_timeout": self.heartbeat_timeout,
            "max_restarts": self.max_restarts,
            "restart_backoff": self.restart_backoff,
            "chaos_kill_at": self.chaos_kill_at,
            "chaos_kill_rate": self.chaos_kill_rate,
            "chaos_stall_after": self.chaos_stall_after,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        data = dict(data)
        for key in (
            "blackout_providers",
            "permanent_blackouts",
            "hang_providers",
            "stall_providers",
            "corrupt_providers",
            "nondeterministic_providers",
        ):
            data[key] = tuple(data.get(key, ()))
        return cls(**data)

    # ------------------------------------------------------------------
    def engine_config(self) -> EngineConfig:
        """The invocation-engine stack this campaign runs on."""
        fault_plan = None
        if (
            self.fault_rate > 0
            or self.latency_ms > 0
            or self.blackout_providers
            or self.permanent_blackouts
            or self.hang_providers
            or self.stall_ms > 0
            or self.corrupt_providers
            or self.nondeterministic_providers
            or self.chaos_kill_at > 0
            or self.chaos_kill_rate > 0
            or self.chaos_stall_after > 0
        ):
            fault_plan = FaultPlan(
                seed=self.seed,
                transient_failure_rate=self.fault_rate,
                latency_ms=self.latency_ms,
                blackout_providers=frozenset(self.blackout_providers),
                blackout_calls=self.blackout_calls,
                permanent_blackout_providers=frozenset(self.permanent_blackouts),
                hang_providers=frozenset(self.hang_providers),
                stall_providers=frozenset(self.stall_providers),
                stall_ms=self.stall_ms,
                corrupt_output_providers=frozenset(self.corrupt_providers),
                nondeterministic_providers=frozenset(
                    self.nondeterministic_providers
                ),
                kill_at_invocation=self.chaos_kill_at,
                kill_rate=self.chaos_kill_rate,
                stall_heartbeat_after=self.chaos_stall_after,
            )
        return EngineConfig(
            parallelism=self.parallelism,
            cache_size=self.cache_size,
            retry=RetryPolicy(
                seed=self.seed,
                max_attempts=self.max_attempts,
                base_delay=self.retry_base_delay,
            ),
            fault_plan=fault_plan,
            breaker=BreakerPolicy(
                failure_threshold=self.failure_threshold,
                probe_interval=self.probe_interval,
            ),
            conformance=(
                ConformancePolicy(probe_rate=self.probe_rate, probe_seed=self.seed)
                if self.conformance
                else None
            ),
            watchdog=(
                WatchdogPolicy(budget=self.watchdog_budget)
                if self.watchdog_budget is not None
                else None
            ),
            tracing=self.trace,
        )


@dataclass
class CampaignResult:
    """The finalized outcome of one campaign.

    Attributes:
        campaign_id: The campaign.
        seed: Its master seed.
        status: ``complete`` or ``degraded``.
        reports: Per-module generation reports, planned order (only the
            modules that completed).
        skipped: Skipped module id -> reason, planned order — the
            degradation manifest's core.
        breaker_states: Per-provider circuit snapshot at finalize time.
        n_planned: Modules the campaign set out to annotate.
        drift: Per-module :class:`repro.obs.drift.DriftReport` list when
            the campaign ran against a baseline, module-id order.
    """

    campaign_id: str
    seed: int
    status: str
    reports: "dict[str, GenerationReport]" = field(default_factory=dict)
    skipped: "dict[str, str]" = field(default_factory=dict)
    breaker_states: "dict[str, dict]" = field(default_factory=dict)
    n_planned: int = 0
    drift: "list" = field(default_factory=list)

    @property
    def n_examples(self) -> int:
        return sum(report.n_examples for report in self.reports.values())

    @property
    def timed_out_combinations(self) -> int:
        """Combinations the watchdog abandoned, over all reports."""
        return sum(
            report.timed_out_combinations for report in self.reports.values()
        )

    @property
    def quarantined_combinations(self) -> int:
        """Semantically quarantined combinations, over all reports."""
        return sum(
            report.quarantined_combinations for report in self.reports.values()
        )

    def quarantine_log(self) -> QuarantineLog:
        """Every quarantined example of the campaign, planned order —
        the feed for :func:`repro.workflow.monitoring.analyze_decay`."""
        log = QuarantineLog()
        for report in self.reports.values():
            log.ingest_report(report)
        return log

    @property
    def coverage(self) -> float:
        """Fraction of planned modules that completed."""
        return len(self.reports) / self.n_planned if self.n_planned else 1.0

    def digest(self) -> str:
        """Content digest over every journaled report, planned order.

        Two campaigns that annotated the same modules to the same
        examples share a digest — the byte-identity witness for
        kill/resume testing.
        """
        rows = [report_json(report) for report in self.reports.values()]
        canonical = "[" + ", ".join(rows) + "]"
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CampaignRunner:
    """Runs, resumes and finalizes campaigns over a module list."""

    def __init__(
        self,
        ctx: ModuleContext,
        catalog: "list[Module]",
        pool: InstancePool,
        journal: CampaignJournal,
        config: CampaignConfig = CampaignConfig(),
        clock: Callable[[], float] = default_clock,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        """Args:
            ctx: Execution context (universe + ontology).
            catalog: The planned modules (``config.limit`` truncates).
            pool: The annotated instance pool.
            journal: The write-ahead journal (shared across processes
                via its SQLite file).
            config: Campaign knobs; persisted on ``run`` so ``resume``
                in a fresh process reconstructs the same engine.
            clock: Monotonic clock, injectable for tests.
            sleep: Sleep function for probe rounds, injectable for tests.
        """
        self.ctx = ctx
        self.modules = list(catalog[: config.limit] if config.limit else catalog)
        self.by_id = {module.module_id: module for module in self.modules}
        self.journal = journal
        self.config = config
        self._clock = clock
        self._sleep = sleep
        self.engine = InvocationEngine(
            config.engine_config(), clock=clock, sleep=sleep
        )
        self.generator = ExampleGenerator(
            ctx, pool, seed=config.seed, engine=self.engine
        )
        #: The longitudinal sampler, armed per campaign when
        #: ``config.sample_interval > 0`` (see :meth:`_arm_sampler`).
        self.sampler = None
        self._last_sample_at: "float | None" = None
        #: Reports committed by the ``run``/``resume`` call in flight
        #: (module id -> report), for the campaign ``_held_campaign``;
        #: emptied when that call returns (see :meth:`_drive`).
        self._held: "dict[str, GenerationReport]" = {}
        self._held_campaign: "str | None" = None

    # ------------------------------------------------------------------
    def _arm_recorder(self, campaign_id: str) -> None:
        """Point the tracer's sink at this campaign's journal.

        The campaign id is only known at ``run``/``resume`` time, so the
        flight recorder is installed here rather than at construction.
        """
        if self.engine.tracer is not None:
            from repro.obs.recorder import FlightRecorder

            self.engine.tracer.sink = FlightRecorder(self.journal, campaign_id)

    def _arm_sampler(self, campaign_id: str) -> None:
        """Install the longitudinal sampler + SLO evaluator.

        Lazy like :meth:`_arm_recorder`: the obs layer is only imported
        when sampling is configured, and the campaign id is only known
        at ``run``/``resume`` time.  The first sample lands immediately
        so every timeline starts with a zero-point for the run segment.
        """
        if self.config.sample_interval <= 0:
            return
        from repro.obs.slo import SLOEvaluator
        from repro.obs.timeseries import Sampler, take_sample

        n_planned = len(self.journal.meta(campaign_id).module_ids)

        def source() -> dict:
            counts = self.journal.progress_counts(campaign_id)
            return take_sample(self.engine, {"n_planned": n_planned, **counts})

        self.sampler = Sampler(
            source,
            journal=self.journal,
            campaign_id=campaign_id,
            evaluator=SLOEvaluator(),
            clock=self._clock,
        )
        self.sampler.sample()
        self._last_sample_at = self._clock()

    def _maybe_sample(self) -> None:
        """Take one sample if armed and the interval has elapsed."""
        if self.sampler is None:
            return
        now = self._clock()
        if (
            self._last_sample_at is None
            or now - self._last_sample_at >= self.config.sample_interval
        ):
            self.sampler.sample()
            self._last_sample_at = now

    def run(self, campaign_id: str) -> CampaignResult:
        """Start a fresh campaign and drive it to a finalized result."""
        self.journal.create(
            campaign_id,
            self.config.seed,
            [module.module_id for module in self.modules],
            self.config.to_dict(),
        )
        self._arm_recorder(campaign_id)
        self._arm_sampler(campaign_id)
        return self._drive(campaign_id, self.modules)

    def resume(self, campaign_id: str) -> CampaignResult:
        """Continue a journaled campaign: re-run every module without a
        committed report (including previously skipped ones), then
        finalize.

        Raises:
            UnknownCampaignError: No such campaign in the journal.
            KeyError: The journal plans a module this runner's catalog
                does not supply.
        """
        meta = self.journal.meta(campaign_id)
        statuses = self.journal.statuses(campaign_id)
        pending = [
            self.by_id[module_id]
            for module_id in meta.module_ids
            if statuses.get(module_id) is None
            or statuses[module_id].status == "skipped"
        ]
        self.journal.set_status(campaign_id, "running")
        self._arm_recorder(campaign_id)
        self._arm_sampler(campaign_id)
        return self._drive(campaign_id, pending)

    # ------------------------------------------------------------------
    def _drive(self, campaign_id: str, pending: "list[Module]") -> CampaignResult:
        """Execute ``pending`` and finalize, holding the reports this call
        commits for ``finalize`` — and for no longer than this call."""
        self._held_campaign = campaign_id
        try:
            self._execute(campaign_id, pending)
            return self.finalize(campaign_id)
        finally:
            self._held = {}
            self._held_campaign = None

    def _execute(self, campaign_id: str, pending: "list[Module]") -> None:
        start = self._clock()
        pending = list(pending)
        while pending:
            unreachable = [
                module
                for module in self.engine.scheduler.map(
                    lambda module: self._attempt(campaign_id, module), pending
                )
                if module is not None
            ]
            self._maybe_sample()
            if not unreachable:
                return
            deadline = self.config.deadline
            budget_left = (
                deadline is not None and self._clock() - start < deadline
            )
            if not budget_left:
                for module in unreachable:
                    self.journal.record_skipped(
                        campaign_id,
                        module.module_id,
                        f"provider {module.provider} unreachable "
                        f"(breaker {self.engine.breaker.state(module.provider).value})",
                    )
                return
            self._sleep(self.config.probe_interval)
            pending = unreachable

    def _attempt(self, campaign_id: str, module: Module) -> "Module | None":
        """Generate one module; journal on completion, else hand the
        module back for the next probe round."""
        report = self.generator.generate(module)
        if report.complete:
            self.journal.record_done(campaign_id, report)
            self._held[report.module_id] = report
            return None
        return module

    # ------------------------------------------------------------------
    def finalize(self, campaign_id: str) -> CampaignResult:
        """Assemble the campaign's result in planned order and persist
        its terminal status (``complete`` / ``degraded``)."""
        # Imported here: sharding builds on this module's CampaignResult.
        from repro.campaign.sharding import assemble_result

        result = assemble_result(
            self.journal,
            campaign_id,
            held=self._held if campaign_id == self._held_campaign else None,
        )
        result.drift = self._evaluate_drift(campaign_id, result.reports)
        if self.sampler is not None:
            # Close the timeline with a terminal sample so post-mortem
            # reconstruction sees the finalized progress counts.
            self.sampler.sample()
        if self.engine.breaker:
            result.breaker_states = self.engine.breaker.snapshot()
        return result

    def _evaluate_drift(
        self, campaign_id: str, reports: "dict[str, GenerationReport]"
    ) -> "list":
        return evaluate_drift(
            self.journal,
            campaign_id,
            self.config.baseline,
            reports,
            sampler=self.sampler,
        )


# ----------------------------------------------------------------------
def evaluate_drift(
    journal: CampaignJournal,
    campaign_id: str,
    baseline: str,
    reports: "dict[str, GenerationReport]",
    sampler=None,
) -> "list":
    """Diff fresh reports against a baseline campaign in the same
    journal and journal drift-alert transitions.

    Standalone (not a runner method) so the sharded supervisor — which
    finalizes a merged campaign without ever building an engine — shares
    the exact drift semantics of the in-process runner.

    Alert events are deduplicated against the journal's current fold,
    so a resumed campaign re-running finalize does not append a second
    ``firing`` event for an already-firing module.
    """
    if not baseline:
        return []
    from repro.obs.drift import campaign_drift
    from repro.obs.slo import SLOEvaluator, alert_key, alert_states

    drift = campaign_drift(journal, baseline, reports)
    evaluator = (
        sampler.evaluator
        if sampler is not None and sampler.evaluator is not None
        else SLOEvaluator()
    )
    t_ms = sampler.elapsed_ms() if sampler is not None else 0.0
    existing = alert_states(journal.alerts(campaign_id))
    for report in drift:
        event = evaluator.register_drift(report, t_ms)
        if event is None:
            continue
        prior = existing.get(alert_key(event))
        if prior is None or prior["state"] != event["state"]:
            journal.record_alert(campaign_id, event)
    return drift


# ----------------------------------------------------------------------
def render_campaign_report(result: CampaignResult) -> str:
    """The campaign's final report.

    Deterministic for complete campaigns: only journaled, planned-order
    content appears (no wall-clock, no telemetry), so a killed-and-
    resumed campaign renders byte-identically to an uninterrupted one.
    Degraded campaigns get the degradation manifest appended.
    """
    lines = [
        f"Campaign {result.campaign_id} (seed {result.seed})",
        f"  modules annotated: {len(result.reports)}/{result.n_planned}",
        f"  data examples:     {result.n_examples}",
        f"  content digest:    {result.digest()}",
    ]
    if result.timed_out_combinations or result.quarantined_combinations:
        lines.append(
            f"  withheld:          {result.timed_out_combinations} timed out, "
            f"{result.quarantined_combinations} quarantined"
        )
    for module_id, report in result.reports.items():
        line = (
            f"    {module_id:<34} examples={report.n_examples:<4} "
            f"invalid={report.invalid_combinations}"
        )
        if report.timed_out_combinations:
            line += f" timed_out={report.timed_out_combinations}"
        if report.quarantined_combinations:
            line += f" quarantined={report.quarantined_combinations}"
        lines.append(line)
    if result.drift:
        from repro.obs.drift import render_drift

        lines.append("")
        lines.append(render_drift(result.drift))
    lines.append(f"  status: {result.status}")
    if result.skipped:
        lines.append("")
        lines.append("Degradation manifest")
        lines.append(
            f"  coverage impact:  {len(result.skipped)}/{result.n_planned} "
            f"modules skipped ({1.0 - result.coverage:.0%} of the plan)"
        )
        lines.append("  skipped modules:")
        for module_id, reason in result.skipped.items():
            lines.append(f"    {module_id:<34} {reason}")
        if result.breaker_states:
            lines.append("  breaker states:")
            for provider, state in result.breaker_states.items():
                lines.append(
                    f"    {provider:<16} {state['state']} "
                    f"(opened {state['times_opened']}x, "
                    f"{state['fast_failures']} fast failures)"
                )
    return "\n".join(lines)
