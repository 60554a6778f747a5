"""Deterministic catalog sharding and shard-journal merging.

The sharded campaign (:mod:`repro.campaign.supervisor`) splits the
planned module list across N worker processes.  Everything in this
module is a pure function of journal state, which is what makes the
whole scheme crash-tolerant:

* **The shard plan is deterministic.**  :func:`shard_plan` is a fixed
  round-robin over the planned module ids, so a resumed supervisor —
  even one SIGKILLed mid-merge — re-derives exactly the same shards
  from the main journal's ``module_ids`` row.  No placement state needs
  to survive the crash.
* **Shard journals are derived paths.**  Shard *i* of ``campaign.db``
  lives in ``campaign.db.shard-0i``; the per-shard campaign id is
  ``<campaign_id>::shard-0i``.  Any subset of these files plus the main
  journal is enough to resume.
* **The merge is idempotent.**  :func:`merge_shard_journal` copies
  per-module rows verbatim into the main journal via the same
  ``INSERT OR REPLACE`` key the serial runner writes, so duplicate
  rows from a restarted worker — or a merge re-run after the supervisor
  was killed halfway through — converge to the same final table.
* **Assembly is planned-order.**  :func:`assemble_result` is the one
  walk of the main journal's planned module ids that builds a
  :class:`~repro.campaign.runner.CampaignResult`; the serial runner's
  ``finalize`` delegates to it too — which is why the merged report of
  a sharded campaign is byte-identical to the single-process run
  (witnessed by ``CampaignResult.digest()``).
"""

from __future__ import annotations

import glob
import os
from typing import Mapping

from repro import processlog
from repro.campaign.journal import (
    COMPLETE,
    DEGRADED,
    CampaignJournal,
    CampaignMeta,
    read_progress_counts,
    shard_campaign_id,
)
from repro.campaign.runner import CampaignResult
from repro.core.generation import GenerationReport
from repro.processlog import SHARD_WORKER


def shard_plan(module_ids: "list[str]", n_shards: int) -> "list[list[str]]":
    """Round-robin the planned module ids across ``n_shards``.

    Deterministic in the input order, so the supervisor and any resumer
    derive identical shards from the journaled plan.  Shards may be
    empty when there are more workers than modules — the merge
    tolerates zero-row shard journals.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be at least 1, got {n_shards}")
    shards: "list[list[str]]" = [[] for _ in range(n_shards)]
    for index, module_id in enumerate(module_ids):
        shards[index % n_shards].append(module_id)
    return shards


def shard_journal_path(db_path: "str | os.PathLike", shard: int) -> str:
    """The derived per-shard SQLite file of shard ``shard``."""
    return f"{db_path}.shard-{shard:02d}"


def campaign_journals(
    db_path: "str | os.PathLike", campaign_id: str
) -> "list[tuple[str, str]]":
    """Every journal file of one campaign, each with the scope its
    process rows are under: the main journal (the campaign id), then
    each shard journal that exists beside it (its shard campaign id),
    in shard order."""
    prefix = shard_journal_path(db_path, 0)[:-2]
    shards = sorted(
        int(path[len(prefix):])
        for path in glob.glob(glob.escape(prefix) + "[0-9]*")
        if path[len(prefix):].isdigit()
    )
    return [(str(db_path), campaign_id)] + [
        (shard_journal_path(db_path, shard), shard_campaign_id(campaign_id, shard))
        for shard in shards
    ]


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def merge_shard_journal(
    main: CampaignJournal,
    campaign_id: str,
    shard_path: "str | os.PathLike",
    shard_cid: str,
) -> int:
    """Copy one shard journal's entries into the main journal.

    The rows move verbatim (:meth:`CampaignJournal.copy_entries`): the
    journaled report JSON is neither parsed nor re-encoded on the way.
    Idempotent and tolerant by construction:

    * A missing shard file, or one whose campaign row was never created
      (the worker died before its first commit), contributes nothing.
    * The copy is a keyed ``(campaign_id, module_id)`` upsert, so
      merging the same shard twice — or merging duplicate rows left by
      a restarted worker — lands on the same final table.

    Returns:
        Entries copied (0 for absent/empty shards).
    """
    if not os.path.exists(str(shard_path)):
        return 0
    return main.copy_entries(campaign_id, shard_path, shard_cid)


def assemble_result(
    journal: CampaignJournal,
    campaign_id: str,
    breaker_states: "dict[str, dict] | None" = None,
    drift: "list | None" = None,
    held: "Mapping[str, GenerationReport] | None" = None,
) -> CampaignResult:
    """Assemble the campaign result from the main journal — the one
    planned-order walk, shared by the serial runner's ``finalize`` and
    the sharded merge.

    Walk ``meta.module_ids``, collect done reports and skip reasons,
    persist the terminal status.  The journal decides which modules are
    done; ``held`` (reports this process committed under
    ``campaign_id``, by module id) only spares re-parsing their rows.
    Because per-module reports are deterministic and the walk order is
    the journaled plan, this renders and digests byte-identically to the
    single-process run.
    """
    meta = journal.meta(campaign_id)
    entries = journal.entries(campaign_id, held=held)
    reports: "dict[str, GenerationReport]" = {}
    skipped: "dict[str, str]" = {}
    for module_id in meta.module_ids:
        entry = entries.get(module_id)
        if entry is not None and entry.status == "done":
            reports[module_id] = entry.report
        else:
            detail = entry.detail if entry is not None else "never attempted"
            skipped[module_id] = detail
    status = COMPLETE if not skipped else DEGRADED
    journal.set_status(campaign_id, status)
    return CampaignResult(
        campaign_id=campaign_id,
        seed=meta.seed,
        status=status,
        reports=reports,
        skipped=skipped,
        breaker_states=breaker_states or {},
        n_planned=len(meta.module_ids),
        drift=drift or [],
    )


# ----------------------------------------------------------------------
# Read-only worker views (CLI `campaign workers`, `top`, Prometheus)
# ----------------------------------------------------------------------
def shard_status(
    db_path: "str | os.PathLike", campaign_id: str, shard: int
) -> "dict | None":
    """The latest heartbeat row of one shard (``None`` while its shard
    journal does not exist yet or holds no heartbeat), read without
    writing."""
    with processlog.reading(shard_journal_path(db_path, shard)) as log:
        rows = (
            log.status(SHARD_WORKER, shard_campaign_id(campaign_id, shard), shard)
            if log is not None
            else []
        )
    return rows[0] if rows else None


def worker_rows(
    db_path: "str | os.PathLike",
    campaign_id: str,
    meta: "CampaignMeta | None" = None,
    events: "list[dict] | None" = None,
    now: "float | None" = None,
) -> "list[dict]":
    """Per-shard worker rows for dashboards and metrics.

    A campaign is sharded iff its config ran with ``workers > 1``; an
    unsharded one has no workers, so its list is empty.  Everything is
    read from the journals alone — the supervisor may be
    alive in another process, or long dead — so ``repro-cli top`` and
    ``campaign workers`` reconstruct the worker fleet post-mortem.
    Liveness and restarts are :func:`repro.processlog.fold`'s; a
    ``shard-degraded`` event overrides the journaled phase.

    Args:
        db_path: The main journal file (shard paths derive from it).
        campaign_id: The campaign.
        meta: Pre-fetched main-journal meta (opened on demand if None).
        events: Pre-fetched worker-event timeline (fetched if None).
        now: Wall clock for heartbeat ages, injectable for tests.
    """
    import time as _time

    if meta is None or events is None:
        main = CampaignJournal(db_path)
        try:
            if meta is None:
                meta = main.meta(campaign_id)
            if events is None:
                events = main.worker_events(campaign_id)
        finally:
            main.close()
    config = meta.config or {}
    n_shards = int(config.get("workers", 1) or 1)
    if n_shards < 2:
        return []
    heartbeat_timeout = float(config.get("heartbeat_timeout", 10.0) or 10.0)
    plan = shard_plan(list(meta.module_ids), n_shards)
    degraded = {
        event["shard"] for event in events if event["kind"] == "shard-degraded"
    }

    rows: "list[dict]" = []
    for shard in range(n_shards):
        status = shard_status(db_path, campaign_id, shard) or {
            "worker": shard, "pid": 0, "attempt": 0, "invocations": 0,
            "phase": "pending", "heartbeat_wall": None, "stats": {},
        }
        counts = read_progress_counts(
            shard_journal_path(db_path, shard),
            shard_campaign_id(campaign_id, shard),
        )
        rows.append(
            {
                **status,
                **counts,
                "shard": shard,
                "phase": "degraded" if shard in degraded else status["phase"],
                "n_planned": len(plan[shard]),
            }
        )
    return [
        {key: value for key, value in row.items() if key != "heartbeat_wall"}
        for row in processlog.fold(
            SHARD_WORKER,
            rows,
            events,
            now if now is not None else _time.time(),
            heartbeat_timeout,
        )
    ]


def merged_worker_stats(rows: "list[dict]") -> dict:
    """Fold the per-worker journaled snapshots into one campaign-wide
    engine-stats view (:func:`repro.engine.telemetry.merge_stats_snapshots`)."""
    from repro.engine.telemetry import merge_stats_snapshots

    return merge_stats_snapshots([row["stats"] for row in rows])
