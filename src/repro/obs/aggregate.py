"""Fleet aggregation: one trace, one scrape, from many journals.

The fleet's observability raw material is scattered by design — every
replica commits spans and stats snapshots into the shared
:class:`~repro.serve.state.ServeStateStore`, every shard worker
heartbeats its ``engine.stats()`` into its own WAL journal and records
spans under its shard campaign id.  Nothing here talks to a live
process: both halves of this module are pure functions of journal
files, so the fleet view works while the fleet runs *and* after any —
or every — process was SIGKILLed.

**Trace assembly.**  :func:`collect_fleet_spans` gathers span trees
from one ``--db`` file: the serving fleet's, then those of named
campaigns (main + derived shard journals); :func:`spans_for_trace`
selects one logical trace by the propagated ``trace_id`` attribute
(:mod:`repro.obs.propagation`); :func:`render_fleet_trace` renders it
hop by hop.  One caveat is structural: ``start_ms`` is measured on
each *process's own* monotonic origin, so spans order within a hop but
not across hops — the rendering groups by ``(process_role,
process_id)`` instead of pretending the clocks align.

**Metric folding.**  :class:`MetricsAggregator` builds one fleet-level
stats snapshot: engine sections folded with
:func:`~repro.engine.telemetry.merge_stats_snapshots` (replica
snapshots + shard-worker heartbeat snapshots), HTTP sections folded
with :func:`merge_http_snapshots`, and the ``workers`` / ``replicas``
gauge rows attached — the exact shape
:func:`~repro.obs.metrics.render_prometheus` already renders, so the
supervisor's fleet ``/metrics`` endpoint is just a
:class:`~repro.obs.metrics.MetricsServer` pointed at an aggregator.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable

from repro.engine.telemetry import LatencyHistogram, merge_stats_snapshots
from repro.obs.tracing import Span

#: Sections of a journaled replica stats snapshot that are *not* engine
#: telemetry and must not be handed to ``merge_stats_snapshots``.
_NON_ENGINE_SECTIONS = ("http", "slo")


# ----------------------------------------------------------------------
# Span collection
# ----------------------------------------------------------------------
def _stamp(span: Span, role: str, process_id) -> Span:
    """Default the process-identity attributes a span should carry.

    Spans recorded inside a :func:`~repro.obs.propagation.propagation_scope`
    already have them; any other span (untraced internal work) gets the
    role and slot of its journal row, so the fleet view never shows an
    anonymous hop.
    """
    span.attributes.setdefault("process_role", role)
    if process_id is not None:
        span.attributes.setdefault("process_id", process_id)
    return span


def collect_fleet_spans(
    db: "str | None" = None, *campaign_ids: str
) -> "list[Span]":
    """All journaled spans of ``db``: the replicas', then each named
    campaign's (its main journal, then each shard journal), each
    stamped with the role and slot of its row.  Reads only; a missing
    file contributes nothing."""
    from repro import processlog
    from repro.campaign.sharding import campaign_journals

    if not db:
        return []
    sources = [(db, processlog.FLEET_SCOPE)]
    for campaign_id in campaign_ids:
        sources += campaign_journals(db, campaign_id)
    return [
        _stamp(Span.from_dict(data), role, slot)
        for role, slot, data in processlog.collect(sources)
    ]


def span_trace_id(span: Span) -> str:
    """The propagated trace id a span carries (``""`` when none)."""
    attrs = span.attributes
    return str(attrs.get("trace_id") or attrs.get("http_trace_id") or "")


def trace_ids(spans: "list[Span]") -> "list[str]":
    """Distinct trace ids present, first-seen order."""
    seen: "dict[str, None]" = {}
    for span in spans:
        trace = span_trace_id(span)
        if trace:
            seen.setdefault(trace, None)
    return list(seen)


def spans_for_trace(trace_id: str, spans: "list[Span]") -> "list[Span]":
    """The subset of ``spans`` belonging to one logical trace."""
    return [span for span in spans if span_trace_id(span) == trace_id]


# ----------------------------------------------------------------------
# Trace rendering
# ----------------------------------------------------------------------
_ROLE_ORDER = {"client": 0, "replica": 1, "supervisor": 2, "shard-worker": 3}


def _hop_key(span: Span) -> "tuple[int, str, str]":
    role = str(span.attributes.get("process_role", "unknown"))
    process = str(span.attributes.get("process_id", ""))
    return (_ROLE_ORDER.get(role, 9), role, process)


def _render_span_lines(root: Span, lines: "list[str]") -> None:
    for depth, span in root.walk():
        label = f"{'  ' * depth}{span.name}"
        lines.append(
            f"    {label:<24} {span.outcome:<22} {span.duration_ms:>9.3f}ms"
        )
        if span.detail:
            detail = span.detail
            if len(detail) > 60:
                detail = detail[:57] + "..."
            lines.append(f"    {'  ' * depth}  detail: {detail}")


def render_fleet_trace(
    trace_id: str,
    spans: "list[Span]",
    slowest: "int | None" = None,
    limit: "int | None" = None,
) -> str:
    """Render one logical trace, hop by hop.

    Hops are ``(process_role, process_id)`` groups; spans within a hop
    order by their process-local start time.  ``slowest`` switches to a
    flat fleet-wide ranking of root spans by duration; ``limit`` caps
    spans rendered per hop.
    """
    selected = spans_for_trace(trace_id, spans)
    total_ms = sum(span.duration_ms for span in selected)
    header = (
        f"trace {trace_id}: {len(selected)} span tree(s), "
        f"{sum(span.tree_size for span in selected)} spans, "
        f"{total_ms:.3f}ms total across "
        f"{len({_hop_key(span) for span in selected})} process hop(s)"
    )
    if not selected:
        return header
    lines = [header]
    if slowest is not None:
        ranked = sorted(
            selected, key=lambda span: -span.duration_ms
        )[: max(1, slowest)]
        lines.append("")
        lines.append(f"  slowest {len(ranked)} span tree(s), fleet-wide:")
        for span in ranked:
            role = span.attributes.get("process_role", "unknown")
            process = span.attributes.get("process_id", "")
            hop = f"{role}{f'-{process}' if process != '' else ''}"
            lines.append(
                f"    {span.module_id:<32} {hop:<16} "
                f"{span.outcome:<12} {span.duration_ms:>9.3f}ms"
            )
        return "\n".join(lines)
    by_hop: "dict[tuple, list[Span]]" = {}
    for span in selected:
        by_hop.setdefault(_hop_key(span), []).append(span)
    for key in sorted(by_hop):
        _, role, process = key
        hop_spans = sorted(by_hop[key], key=lambda span: span.start_ms)
        shown = hop_spans[:limit] if limit is not None else hop_spans
        hop = f"{role}{f' {process}' if process else ''}"
        hop_ms = sum(span.duration_ms for span in hop_spans)
        lines.append("")
        lines.append(
            f"  [{hop}]  {len(hop_spans)} span tree(s), {hop_ms:.3f}ms"
        )
        for span in shown:
            _render_span_lines(span, lines)
        if len(shown) < len(hop_spans):
            lines.append(
                f"    ... {len(hop_spans) - len(shown)} more span tree(s)"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# HTTP snapshot folding
# ----------------------------------------------------------------------
def merge_http_snapshots(snapshots: "list[dict]") -> dict:
    """Fold per-replica ``http`` sections into one fleet section.

    Request counts, shed/rate-limit/deadline counters and admission
    totals sum; the latency histogram is absorbed bucket-wise (the
    replicas share the engine's fixed bounds); inflight/queue gauges
    sum (fleet-wide concurrency); per-tenant buckets take the *max* per
    counter — in a fleet the buckets are durable and shared, so every
    replica reports the same store-backed row and summing would
    multiply it by the replica count.
    """
    merged: dict = {
        "requests": [],
        "requests_total": 0,
        "status_classes": {"2xx": 0, "3xx": 0, "4xx": 0, "5xx": 0},
        "shed_total": 0,
        "rate_limited_total": 0,
        "rate_limited_by_tenant": {},
        "deadline_exceeded_total": 0,
        "inflight": 0,
        "max_inflight": 0,
        "queue_depth": 0,
        "max_queue": 0,
        "admitted_total": 0,
        "tenants": {},
        "replicas_reporting": 0,
    }
    requests: "dict[tuple, int]" = {}
    for snapshot in snapshots:
        if not snapshot:
            continue
        merged["replicas_reporting"] += 1
        for entry in snapshot.get("requests", []):
            key = (entry["endpoint"], entry["method"], entry["status"])
            requests[key] = requests.get(key, 0) + entry["count"]
        merged["requests_total"] += snapshot.get("requests_total", 0)
        for bucket, count in snapshot.get("status_classes", {}).items():
            if bucket in merged["status_classes"]:
                merged["status_classes"][bucket] += count
        for key in (
            "shed_total", "rate_limited_total", "deadline_exceeded_total",
            "inflight", "max_inflight", "queue_depth", "max_queue",
            "admitted_total",
        ):
            merged[key] += snapshot.get(key, 0)
        for tenant, count in snapshot.get(
            "rate_limited_by_tenant", {}
        ).items():
            merged["rate_limited_by_tenant"][tenant] = (
                merged["rate_limited_by_tenant"].get(tenant, 0) + count
            )
        for tenant, bucket in snapshot.get("tenants", {}).items():
            entry = merged["tenants"].setdefault(tenant, dict(bucket))
            for counter in ("allowed", "limited"):
                entry[counter] = max(
                    entry.get(counter, 0), bucket.get(counter, 0)
                )
    merged["requests"] = [
        {
            "endpoint": endpoint,
            "method": method,
            "status": status,
            "count": count,
        }
        for (endpoint, method, status), count in sorted(requests.items())
    ]
    merged["latency"] = merge_latency(
        snapshot.get("latency") for snapshot in snapshots if snapshot
    )
    return merged


def merge_latency(sections) -> dict:
    """Fold snapshot ``latency`` sections into one: their histograms
    absorbed bucket-wise (every source shares the engine's fixed
    bounds), the quantiles read from the merged histogram."""
    histogram = LatencyHistogram()
    for latency in sections:
        if latency and latency.get("count"):
            histogram.absorb(LatencyHistogram.from_snapshot(latency))
    return {
        "count": histogram.count,
        "sum_ms": histogram.sum_ms,
        "mean_ms": histogram.mean_ms,
        "p50_ms": histogram.quantile(0.5),
        "p95_ms": histogram.quantile(0.95),
        "p99_ms": histogram.quantile(0.99),
        "max_ms": histogram.max_ms,
        "cumulative_buckets": [
            list(pair) for pair in histogram.cumulative_buckets()
        ],
    }


# ----------------------------------------------------------------------
# The unified scrape
# ----------------------------------------------------------------------
class MetricsAggregator:
    """One fleet-level stats snapshot, folded from journals.

    Its source is one ``--db`` file, given as ``db`` or as a live
    :class:`~repro.serve.state.ServeStateStore` (the fleet
    supervisor's) whose replica rows are read through the store:

    * the serving fleet contributes per-replica engine stats, the
      folded ``http`` section, and the ``replicas`` gauge rows;
    * with ``campaign_id``, that sharded campaign contributes
      per-shard-worker engine stats (journaled heartbeats) and the
      ``workers`` gauge rows.

    The result of :meth:`snapshot` has exactly the section shape
    ``render_prometheus`` consumes, so the aggregator plugs straight
    into :class:`~repro.obs.metrics.MetricsServer` — the supervisor's
    fleet ``/metrics`` endpoint — and into ``repro-cli metrics
    --fleet`` for the offline view.
    """

    def __init__(
        self,
        state: "object | None" = None,
        db: "str | None" = None,
        campaign_id: "str | None" = None,
        wall_clock: Callable[[], float] = time.time,
    ) -> None:
        self._state = state
        self._db = state.path if state is not None else db
        self._campaign_id = campaign_id
        self._wall = wall_clock

    # ------------------------------------------------------------------
    def _replica_sources(self) -> "tuple[list[dict], list[dict]]":
        """``(per-replica stats snapshots, replica gauge rows)``."""
        from contextlib import nullcontext

        from repro.processlog import FLEET_SCOPE, REPLICA, reading

        source = (
            nullcontext(self._state.processes)
            if self._state is not None
            else reading(self._db)
        )
        with source as log:
            if log is None:
                return [], []
            stats = list(log.stats(REPLICA, FLEET_SCOPE).values())
            return stats, log.rows(REPLICA, FLEET_SCOPE, self._wall(), 10.0)

    def _worker_sources(self) -> "list[dict]":
        """Per-shard worker gauge rows (their stats ride inside)."""
        if not self._db or not self._campaign_id:
            return []
        if not os.path.exists(str(self._db)):
            return []
        from repro.campaign.journal import UnknownCampaignError
        from repro.campaign.sharding import worker_rows

        try:
            return worker_rows(self._db, self._campaign_id, now=self._wall())
        except UnknownCampaignError:
            return []

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The folded fleet snapshot, ``render_prometheus`` shaped."""
        replica_stats, replica_rows = self._replica_sources()
        workers = self._worker_sources()
        engine_snapshots = list(replica_stats) + [
            row["stats"] for row in workers
        ]
        merged = merge_stats_snapshots(engine_snapshots)
        http = merge_http_snapshots(
            [stats.get("http") or {} for stats in replica_stats]
        )
        if http["replicas_reporting"]:
            merged["http"] = http
        if replica_rows:
            merged["replicas"] = replica_rows
        if workers:
            merged["workers"] = workers
        merged["fleet"] = {
            "replica_snapshots": len(replica_stats),
            "worker_snapshots": len(workers),
            "sources": len(engine_snapshots),
        }
        return merged

    def to_prometheus(self) -> str:
        from repro.obs.metrics import render_prometheus

        return render_prometheus(self.snapshot())

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)


__all__ = [
    "MetricsAggregator",
    "collect_fleet_spans",
    "merge_http_snapshots",
    "render_fleet_trace",
    "span_trace_id",
    "spans_for_trace",
    "trace_ids",
]
