"""The shard worker: one spawned process, one shard, one journal.

A worker is deliberately thin: it rebuilds the deterministic world from
the seed, restricts the catalog to its shard's module ids, and drives a
plain :class:`~repro.campaign.runner.CampaignRunner` against its *own*
shard journal under its shard campaign id.  That reuse is the whole
point — every crash-tolerance property the serial runner already has
(per-module commits, resume-from-journal, planned-order assembly)
applies verbatim inside each shard, so a worker killed mid-shard and
respawned by the supervisor simply resumes where the journal left off.

On top of the runner the worker adds exactly one thing: a heartbeat
thread (:class:`repro.supervision.Heartbeat`, the one serving replicas
run too) that commits its status row (:mod:`repro.processlog`: phase,
invocation count, and the full ``engine.stats()`` snapshot) into the
shard journal every
``heartbeat_interval`` seconds.  The snapshot row is how per-worker
telemetry leaves the process without any shared memory; the supervisor
merges the journaled snapshots at checkpoint boundaries.  When the
fault plan's ``stall_heartbeat_after`` chaos trips, the thread is
muted: it stops committing while the process stays alive — the exact
wedged-worker shape the supervisor's heartbeat timeout must catch.

``shard_worker_main`` must stay a module-level importable function:
the supervisor spawns workers with the ``spawn`` start method (no
fork-inherited state, same behavior everywhere), which pickles the
entry point by qualified name.
"""

from __future__ import annotations

import json
import os
import time

from repro.campaign.journal import CampaignJournal
from repro.campaign.runner import CampaignConfig, CampaignRunner
from repro.obs.profiler import PROFILE_EVENT_KIND, maybe_start_profiler
from repro.obs.propagation import TraceContext, propagation_scope
from repro.processlog import SHARD_WORKER
from repro.supervision import Heartbeat


def build_world(seed: int = 2014):
    """Rebuild the deterministic world: context, catalog, pool.

    The single world-construction recipe shared by the CLI and every
    spawned shard worker — both must derive the identical catalog from
    the seed or the shard plan would not line up across processes.
    """
    from repro.modules.catalog import default_catalog, default_context
    from repro.ontology import build_mygrid_ontology
    from repro.pool import InstancePool, default_factory

    ctx = default_context(seed)
    catalog = list(default_catalog())
    pool = InstancePool.bootstrap(default_factory(seed), build_mygrid_ontology())
    return ctx, catalog, pool


def worker_config(config: CampaignConfig, chaos_armed: bool) -> CampaignConfig:
    """The per-worker view of the campaign config.

    * ``limit`` is cleared — the supervisor already applied it when
      planning, and the shard module list *is* the limit.
    * ``workers`` collapses to 1 — a worker never recurses into
      sharding.
    * ``baseline`` is cleared — drift evaluation runs once, at the
      supervisor's merge, against the main journal (the baseline
      campaign does not exist in shard journals).
    * Process chaos is stripped unless ``chaos_armed`` — the supervisor
      arms chaos only on a shard's first attempt, so restarted workers
      converge instead of being killed forever.
    """
    from dataclasses import replace

    overrides: dict = {"limit": None, "workers": 1, "baseline": ""}
    if not chaos_armed:
        overrides.update(
            {"chaos_kill_at": 0, "chaos_kill_rate": 0.0, "chaos_stall_after": 0}
        )
    return replace(config, **overrides)


def shard_worker_main(spec: dict) -> int:
    """Entry point of one spawned shard worker.

    Args:
        spec: ``{"worker", "shard", "attempt", "journal_path",
            "campaign_id" (the shard campaign id), "module_ids",
            "config" (CampaignConfig dict, already worker-shaped)}``.

    Returns:
        0 on a finalized shard (complete *or* degraded-with-skips —
        the supervisor reads the journal, not the exit code, for
        results); nonzero propagates as a crash.
    """
    config = CampaignConfig.from_dict(spec["config"])
    ctx, catalog, pool = build_world(config.seed)
    by_id = {module.module_id: module for module in catalog}
    shard_modules = [by_id[module_id] for module_id in spec["module_ids"]]
    # The supervisor's trace context crossed the spawn boundary in the
    # spec; rebuilding it here makes every span this worker journals
    # carry the campaign-wide trace id plus this process's identity.
    context = TraceContext.from_dict(spec.get("trace_context"))
    profiler = maybe_start_profiler()
    journal = CampaignJournal(spec["journal_path"])
    started_wall = time.time()
    try:
        runner = CampaignRunner(ctx, shard_modules, pool, journal, config)
        engine = runner.engine

        def beat(phase: str) -> None:
            injector = engine.fault_injector
            journal.processes.record_status(
                SHARD_WORKER,
                spec["campaign_id"],
                spec["shard"],
                worker=spec["worker"],
                pid=os.getpid(),
                attempt=spec["attempt"],
                work=(
                    injector.invocations
                    if injector is not None
                    else engine.telemetry.snapshot()["counters"].get("calls", 0)
                ),
                phase=phase,
                started_wall=started_wall,
                stats=engine.stats(),
            )

        def stalled() -> bool:
            # Chaos: the worker wedges silently — alive but mute.
            injector = engine.fault_injector
            return injector is not None and injector.heartbeat_stalled.is_set()

        heartbeat = Heartbeat(
            beat,
            config.heartbeat_interval,
            f"shard-{spec['shard']:02d}-heartbeat",
            muted=stalled,
        )
        beat("running")
        heartbeat.start()
        try:
            with propagation_scope(
                context,
                "shard-worker",
                process_id=spec["shard"],
                worker=spec["worker"],
            ):
                try:
                    runner.run(spec["campaign_id"])
                except ValueError:
                    # The shard campaign already exists: a previous
                    # attempt journaled it before dying.  Resume re-runs
                    # only the unjournaled remainder.
                    runner.resume(spec["campaign_id"])
        finally:
            heartbeat.stop(final_phase="done")
        if profiler is not None:
            journal.processes.record_event(
                SHARD_WORKER,
                spec["campaign_id"],
                spec["shard"],
                PROFILE_EVENT_KIND,
                json.dumps(profiler.stop(), sort_keys=True),
                worker=spec["worker"],
            )
    finally:
        journal.close()
    return 0
