"""Resilient generation campaigns: crash-safe, decay-aware catalog runs.

The campaign layer turns the §3 harvesting loop into a long-running job
that survives the §6 world::

    CampaignRunner          run / resume / finalize over a planned module list
        CampaignJournal     SQLite write-ahead journal of per-module reports
        InvocationEngine    cache + retry + breaker + watchdog + conformance
    render_campaign_report  deterministic final report + degradation manifest

Byzantine modules — ones that hang, answer with the wrong arity, or
answer nondeterministically — produce *quarantined* examples: journaled
and counted (``timed_out_combinations`` / ``quarantined_combinations``)
but never admitted to annotations or matching.

``repro-cli campaign run`` can be killed at any journal boundary;
``campaign resume`` completes the remainder and the finalized report is
byte-identical to an uninterrupted run.  Providers that stay dark past
the deadline end up in the degradation manifest instead of failing the
campaign.

With ``sample_interval`` set, the runner also journals a longitudinal
snapshot timeline and SLO alert history (:mod:`repro.obs.timeseries`,
:mod:`repro.obs.slo`) — observations in their own tables, never part of
report reassembly, so byte-identity is unaffected.  ``baseline`` diffs
every fresh report against an earlier campaign's examples and raises
behavior-drift alerts (:mod:`repro.obs.drift`).

With ``workers > 1`` the campaign runs sharded across supervised worker
*processes* (:mod:`repro.campaign.supervisor`): each shard writes its
own journal, crashed or wedged workers are restarted with exponential
backoff, and a deterministic journal-merge reconstructs the exact
single-process report — byte-identical even after SIGKILLing workers
and the supervisor itself (:mod:`repro.campaign.sharding`).
"""

from repro.campaign.journal import (
    COMPLETE,
    DEGRADED,
    RUNNING,
    CampaignJournal,
    CampaignMeta,
    JournalEntry,
    UnknownCampaignError,
    campaign_progress,
    report_from_dict,
    report_json,
    report_to_dict,
)
from repro.campaign.runner import (
    CampaignConfig,
    CampaignResult,
    CampaignRunner,
    evaluate_drift,
    render_campaign_report,
)
from repro.campaign.sharding import (
    assemble_result,
    merge_shard_journal,
    merged_worker_stats,
    shard_campaign_id,
    shard_journal_path,
    shard_plan,
    worker_rows,
)
from repro.campaign.supervisor import CampaignSupervisor
from repro.campaign.worker import build_world, shard_worker_main, worker_config

__all__ = [
    "COMPLETE",
    "DEGRADED",
    "RUNNING",
    "CampaignConfig",
    "CampaignJournal",
    "CampaignMeta",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSupervisor",
    "JournalEntry",
    "UnknownCampaignError",
    "assemble_result",
    "build_world",
    "campaign_progress",
    "evaluate_drift",
    "merge_shard_journal",
    "merged_worker_stats",
    "render_campaign_report",
    "report_from_dict",
    "report_json",
    "report_to_dict",
    "shard_campaign_id",
    "shard_journal_path",
    "shard_plan",
    "shard_worker_main",
    "worker_config",
    "worker_rows",
]
