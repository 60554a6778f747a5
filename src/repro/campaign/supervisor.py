"""The campaign supervisor: spawn, watch, restart, merge.

Drives a sharded multi-process campaign end to end:

1. **Plan.**  Round-robin the planned modules into ``config.workers``
   shards (:func:`repro.campaign.sharding.shard_plan`) and journal the
   campaign row in the *main* journal — the single durable record a
   resumed supervisor needs to re-derive everything.
2. **Spawn.**  One ``spawn``-context process per shard
   (:func:`repro.campaign.worker.shard_worker_main`), each writing its
   own per-shard journal.  Process chaos (kill-at-invocation-K,
   kill-rate, stall-heartbeat) is armed only on a shard's first
   attempt, so recovery always converges.
3. **Supervise.**  The shared :class:`~repro.supervision.ProcessSupervisor`
   (the serving fleet runs the same one) watches exit codes and
   heartbeat rows.  A worker that exits 0 has finished its shard.  One
   that died (crash, chaos kill, OOM-kill) or went mute past
   ``heartbeat_timeout`` (wedged) is SIGKILLed and its shard is
   reassigned to a fresh worker after exponential backoff — up to
   ``max_restarts`` times, after which the shard is declared degraded
   and its unfinished modules are journaled skipped.  Every lifecycle
   event (spawn, heartbeat-miss, crash, restart, shard-reassign,
   shard-done, shard-degraded) is committed to the main journal, so the
   post-mortem timeline reconstructs from the file alone.
4. **Merge + finalize.**  Shard entries are upserted into the main
   journal (idempotent), degraded shards' gaps are journaled skipped,
   and the result is assembled in planned order — byte-identical to the
   serial runner's report, including after the supervisor itself was
   SIGKILLed at *any* point (``resume`` re-derives the plan, respawns
   unfinished shards, and re-merges).

The supervisor never builds an invocation engine: all telemetry is
merged from the per-worker snapshots journaled at heartbeat boundaries.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Callable

from repro.campaign.journal import CampaignJournal
from repro.campaign.runner import (
    CampaignConfig,
    CampaignResult,
    evaluate_drift,
)
from repro.campaign.sharding import (
    assemble_result,
    merge_shard_journal,
    shard_campaign_id,
    shard_journal_path,
    shard_plan,
    shard_status,
)
from repro.campaign.worker import shard_worker_main, worker_config
from repro.obs.propagation import TraceContext, campaign_trace_id
from repro.processlog import SHARD_WORKER
from repro.supervision import Child, ProcessSupervisor, current_beat


#: Campaign journal names of the shared supervisor's lifecycle events.
_SHARD_KINDS = {
    "done": "shard-done",
    "degraded": "shard-degraded",
    "restart-scheduled": "shard-reassign",
}


class CampaignSupervisor:
    """Runs and resumes sharded campaigns over worker processes.

    Args:
        db_path: The main journal SQLite file (shard journal paths
            derive from it).
        module_ids: The planned module ids, catalog order
            (``config.limit`` truncates; only consulted by ``run`` —
            ``resume`` replans from the journal).
        config: Campaign knobs; ``config.workers`` is the shard count.
        wall_clock: Wall-clock source for heartbeat ages, injectable.
        sleep: Poll-loop sleep, injectable.
    """

    def __init__(
        self,
        db_path: str,
        module_ids: "list[str]",
        config: CampaignConfig = CampaignConfig(),
        wall_clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if config.workers < 1:
            raise ValueError(f"workers must be at least 1, got {config.workers}")
        self.db_path = str(db_path)
        self.module_ids = list(module_ids)
        self.config = config
        self._wall = wall_clock
        self._sleep = sleep
        self._mp = multiprocessing.get_context("spawn")

    # ------------------------------------------------------------------
    def run(self, campaign_id: str) -> CampaignResult:
        """Start a fresh sharded campaign and drive it to a result.

        Raises:
            ValueError: The campaign id is already journaled (use
                ``resume``).
        """
        planned = (
            self.module_ids[: self.config.limit]
            if self.config.limit
            else self.module_ids
        )
        journal = CampaignJournal(self.db_path)
        try:
            journal.create(
                campaign_id, self.config.seed, planned, self.config.to_dict()
            )
            return self._drive(journal, campaign_id, planned, chaos_armed=True)
        finally:
            journal.close()

    def resume(self, campaign_id: str) -> CampaignResult:
        """Continue after the supervisor itself died (or was killed).

        The shard plan re-derives deterministically from the journaled
        module ids; workers resume their shard journals (any subset of
        which may exist); the merge is idempotent.  Chaos is never
        re-armed on resume, so a chaos-killed campaign converges.

        Raises:
            UnknownCampaignError: No such campaign in the main journal.
        """
        journal = CampaignJournal(self.db_path)
        try:
            meta = journal.meta(campaign_id)
            self.config = CampaignConfig.from_dict(meta.config)
            journal.set_status(campaign_id, "running")
            return self._drive(
                journal, campaign_id, list(meta.module_ids), chaos_armed=False
            )
        finally:
            journal.close()

    # ------------------------------------------------------------------
    def _drive(
        self,
        journal: CampaignJournal,
        campaign_id: str,
        planned: "list[str]",
        chaos_armed: bool,
    ) -> CampaignResult:
        self._journal = journal
        self._campaign_id = campaign_id
        self._shards = shard_plan(planned, self.config.workers)
        # Shard i starts on worker i; a reassignment takes a fresh id.
        self._workers = list(range(len(self._shards)))
        # Chaos is armed only on the shard's very first attempt of a
        # fresh run: a restarted (or resumed) worker must be allowed to
        # finish, or a kill-at-invocation plan would loop forever.
        self._chaos_armed = chaos_armed and (
            self.config.chaos_kill_at > 0
            or self.config.chaos_kill_rate > 0
            or self.config.chaos_stall_after > 0
        )
        supervisor = ProcessSupervisor(
            len(self._shards),
            self.config,
            start=self._start,
            last_beat=self._last_beat,
            record=self._record,
            exit_zero_done=True,
            wall_clock=self._wall,
        )
        for child in supervisor.children:
            supervisor.spawn(child, "spawn")
        supervisor.supervise(self._sleep)
        degraded = [child.index for child in supervisor.children if child.degraded]
        return self._merge(journal, campaign_id, degraded)

    def _start(self, child: Child, kind: str):
        """Spawn the shard's current attempt and journal it."""
        armed = self._chaos_armed and child.attempt == 1
        shard = child.index
        spec = {
            "worker": self._workers[shard],
            "shard": shard,
            "attempt": child.attempt,
            "journal_path": shard_journal_path(self.db_path, shard),
            "campaign_id": shard_campaign_id(self._campaign_id, shard),
            "module_ids": self._shards[shard],
            "config": worker_config(self.config, chaos_armed=armed).to_dict(),
            # The campaign's trace id is *derived* from the campaign id,
            # so a resumed supervisor (fresh process, journal only)
            # stamps the same id and the fleet trace stays one trace.
            "trace_context": TraceContext(
                trace_id=campaign_trace_id(self._campaign_id)
            ).to_dict(),
        }
        process = self._mp.Process(
            target=shard_worker_main,
            args=(spec,),
            name=f"repro-shard-{shard:02d}",
        )
        process.start()
        self._record(
            child,
            kind,
            f"pid {process.pid} attempt {child.attempt} "
            f"({len(self._shards[shard])} modules"
            f"{', chaos armed' if armed else ''})",
            t_wall=child.spawned_at,
        )
        return process

    def _last_beat(self, child: Child) -> "float | None":
        """The shard's journaled heartbeat of its current attempt."""
        return current_beat(
            shard_status(self.db_path, self._campaign_id, child.index), child
        )

    def _record(
        self, child: Child, kind: str, detail: str, t_wall=None
    ) -> None:
        """Journal a lifecycle event; a scheduled restart also moves the
        shard to a fresh worker id."""
        if kind == "restart-scheduled":
            old_worker = self._workers[child.index]
            self._workers[child.index] = max(self._workers) + 1
            detail = f"worker {old_worker} -> {self._workers[child.index]}, {detail}"
        self._journal.processes.record_event(
            SHARD_WORKER,
            self._campaign_id,
            child.index,
            _SHARD_KINDS.get(kind, kind),
            detail,
            worker=self._workers[child.index],
            t_wall=t_wall,
        )

    # ------------------------------------------------------------------
    def _merge(
        self,
        journal: CampaignJournal,
        campaign_id: str,
        degraded: "list[int]",
    ) -> CampaignResult:
        """Deterministic journal-merge: upsert every shard's entries,
        fill degraded shards' gaps with skip rows, assemble planned-
        order.  Idempotent end to end — a supervisor SIGKILLed anywhere
        in here re-merges to the same table on resume."""
        for shard in range(len(self._shards)):
            merge_shard_journal(
                journal,
                campaign_id,
                shard_journal_path(self.db_path, shard),
                shard_campaign_id(campaign_id, shard),
            )
        statuses = journal.statuses(campaign_id)
        for shard in degraded:
            for module_id in self._shards[shard]:
                if module_id not in statuses:
                    journal.record_skipped(
                        campaign_id,
                        module_id,
                        f"shard {shard:02d} degraded "
                        f"(restart budget exhausted after "
                        f"{self.config.max_restarts} restarts)",
                    )
        breaker_states = self._merged_breaker(campaign_id, len(self._shards))
        result = assemble_result(
            journal, campaign_id, breaker_states=breaker_states
        )
        result.drift = evaluate_drift(
            journal, campaign_id, self.config.baseline, result.reports
        )
        return result

    def _merged_breaker(
        self, campaign_id: str, n_shards: int
    ) -> "dict[str, dict]":
        """Fold the per-worker breaker snapshots (from the journaled
        heartbeat stats) into one per-provider view for the degradation
        manifest."""
        from repro.engine.telemetry import merge_stats_snapshots

        statuses = [
            shard_status(self.db_path, campaign_id, shard)
            for shard in range(n_shards)
        ]
        merged = merge_stats_snapshots(
            [status["stats"] for status in statuses if status is not None]
        )
        return merged.get("breaker", {})
