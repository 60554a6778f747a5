"""Tests of fleet aggregation: the serve-state span table, per-replica
stats journaling, cross-journal span collection, hop-grouped fleet trace
rendering, the HTTP-snapshot fold, the unified MetricsAggregator, and
the merge_stats_snapshots edge cases (empty input, disjoint histogram
buckets, breaker-state conflicts, mixed snapshot schemas)."""

from __future__ import annotations

import json

import pytest

from repro.engine.telemetry import merge_stats_snapshots
from repro.obs.aggregate import (
    MetricsAggregator,
    collect_fleet_spans,
    merge_http_snapshots,
    render_fleet_trace,
    span_trace_id,
    spans_for_trace,
    trace_ids,
)
from repro.obs.tracing import Span
from repro.processlog import FLEET_SCOPE, REPLICA, has_status
from repro.serve.state import ServeStateStore

TRACE = "ab" * 16


def _span_dict(name="invoke", module_id="m1", start_ms=1.0, trace=TRACE,
               role=None, process=None, **attrs):
    attributes = dict(attrs)
    if trace is not None:
        attributes["trace_id"] = trace
    if role is not None:
        attributes["process_role"] = role
    if process is not None:
        attributes["process_id"] = process
    return {
        "name": name,
        "module_id": module_id,
        "start_ms": start_ms,
        "duration_ms": 2.5,
        "outcome": "ok",
        "attributes": attributes,
    }


def _record_span(store, replica, span):
    store.processes.record_span(REPLICA, FLEET_SCOPE, replica, span)


def _record_stats(store, replica, stats):
    """A replica heartbeat carrying its stats snapshot."""
    store.processes.record_status(
        REPLICA, FLEET_SCOPE, replica, pid=1, attempt=1, phase="running",
        work=0, started_wall=0.0, stats=stats,
    )


# ----------------------------------------------------------------------
# The serve-state span + stats rows
# ----------------------------------------------------------------------
class TestServeSpanStore:
    def test_spans_roundtrip_with_replica_annotation(self, tmp_path):
        store = ServeStateStore(tmp_path / "s.db")
        try:
            _record_span(store, 0, _span_dict(module_id="a"))
            _record_span(store, 1, _span_dict(module_id="b"))
            rows = store.spans()
            assert [row["_replica"] for row in rows] == [0, 1]
            assert [row["module_id"] for row in rows] == ["a", "b"]
            assert len(store.processes.spans(FLEET_SCOPE)) == 2
        finally:
            store.close()

    def test_spans_filter_by_replica_and_module(self, tmp_path):
        store = ServeStateStore(tmp_path / "s.db")
        try:
            _record_span(store, 0, _span_dict(module_id="a"))
            _record_span(store, 1, _span_dict(module_id="a"))
            _record_span(store, 1, _span_dict(module_id="b"))
            assert len(store.spans(replica=1)) == 2
            assert len(store.spans(module_id="a")) == 2
            assert len(store.spans(replica=1, module_id="b")) == 1
        finally:
            store.close()

    def test_replica_stats_upsert(self, tmp_path):
        store = ServeStateStore(tmp_path / "s.db")
        try:
            _record_stats(store, 0, {"counters": {"calls": 1}})
            _record_stats(store, 0, {"counters": {"calls": 5}})
            _record_stats(store, 1, {"counters": {"calls": 2}})
            stats = store.processes.stats(REPLICA, FLEET_SCOPE)
            assert stats[0]["counters"]["calls"] == 5
            assert stats[1]["counters"]["calls"] == 2
        finally:
            store.close()

    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "s.db"
        store = ServeStateStore(path)
        _record_span(store, 0, _span_dict())
        _record_stats(store, 0, {"counters": {"calls": 3}})
        store.close()
        reopened = ServeStateStore(path)
        try:
            assert len(reopened.processes.spans(FLEET_SCOPE)) == 1
            stats = reopened.processes.stats(REPLICA, FLEET_SCOPE)
            assert stats[0]["counters"]["calls"] == 3
        finally:
            reopened.close()


# ----------------------------------------------------------------------
# Span collection
# ----------------------------------------------------------------------
class TestCollection:
    def test_serve_spans_are_stamped_with_replica_identity(self, tmp_path):
        store = ServeStateStore(tmp_path / "s.db")
        _record_span(store, 2, _span_dict())
        store.close()
        spans = collect_fleet_spans(str(tmp_path / "s.db"))
        assert len(spans) == 1
        assert spans[0].attributes["process_role"] == "replica"
        assert spans[0].attributes["process_id"] == 2

    def test_missing_file_collects_nothing(self, tmp_path):
        assert collect_fleet_spans(str(tmp_path / "nope.db")) == []
        assert collect_fleet_spans(str(tmp_path / "nope.db"), "c") == []
        assert collect_fleet_spans() == []

    def test_campaign_journal_without_serve_state_is_not_mutated(self, tmp_path):
        from repro.campaign.journal import CampaignJournal

        path = tmp_path / "c.db"
        journal = CampaignJournal(path)
        journal.create("c", 1, ["m"], {})
        journal.close()
        assert collect_fleet_spans(str(path)) == []
        # The collector must not have grafted serve rows onto it.
        assert not has_status(str(path), REPLICA, FLEET_SCOPE)

    def test_unknown_campaign_collects_nothing(self, tmp_path):
        from repro.campaign.journal import CampaignJournal

        path = tmp_path / "c.db"
        CampaignJournal(path).close()
        assert collect_fleet_spans(str(path), "ghost") == []


# ----------------------------------------------------------------------
# Trace selection + rendering
# ----------------------------------------------------------------------
class TestFleetTrace:
    def _spans(self):
        return [
            Span.from_dict(_span_dict(role="replica", process=0)),
            Span.from_dict(_span_dict(role="replica", process=1)),
            Span.from_dict(_span_dict(role="shard-worker", process=0)),
            Span.from_dict(_span_dict(trace="ff" * 16, role="replica",
                                      process=0)),
            Span.from_dict(_span_dict(trace=None, role="replica", process=0)),
        ]

    def test_trace_ids_first_seen_order(self):
        assert trace_ids(self._spans()) == [TRACE, "ff" * 16]

    def test_spans_for_trace_selects_exactly(self):
        selected = spans_for_trace(TRACE, self._spans())
        assert len(selected) == 3

    def test_http_trace_id_is_an_alias(self):
        span = Span.from_dict(_span_dict(trace=None, http_trace_id="beef"))
        assert span_trace_id(span) == "beef"

    def test_render_groups_by_process_hop(self):
        text = render_fleet_trace(TRACE, self._spans())
        assert "3 span tree(s)" in text
        assert "3 process hop(s)" in text
        # Replicas render before shard workers, each hop labelled.
        assert text.index("[replica 0]") < text.index("[replica 1]")
        assert text.index("[replica 1]") < text.index("[shard-worker 0]")

    def test_render_slowest_is_a_flat_ranking(self):
        spans = self._spans()
        spans[2].duration_ms = 99.0
        text = render_fleet_trace(TRACE, spans, slowest=2)
        lines = text.splitlines()
        assert "slowest 2 span tree(s)" in text
        ranked = [line for line in lines if "ms" in line and "m1" in line]
        assert "shard-worker-0" in ranked[0]

    def test_render_limit_caps_per_hop(self):
        spans = [
            Span.from_dict(_span_dict(role="replica", process=0, start_ms=i))
            for i in range(5)
        ]
        text = render_fleet_trace(TRACE, spans, limit=2)
        assert "... 3 more span tree(s)" in text

    def test_render_empty_trace(self):
        text = render_fleet_trace("nothere", [])
        assert "0 span tree(s)" in text


# ----------------------------------------------------------------------
# merge_http_snapshots
# ----------------------------------------------------------------------
def _http_snapshot(total=10, shed=1, tenant_allowed=5):
    return {
        "requests": [
            {"endpoint": "/v1/generate", "method": "POST", "status": 200,
             "count": total}
        ],
        "requests_total": total,
        "status_classes": {"2xx": total, "3xx": 0, "4xx": 0, "5xx": 0},
        "latency": {"count": total, "sum_ms": 10.0 * total, "max_ms": 20.0,
                    "cumulative_buckets": [[10.0, total], [25.0, total]]},
        "shed_total": shed,
        "rate_limited_total": 0,
        "rate_limited_by_tenant": {"t1": 2},
        "deadline_exceeded_total": 0,
        "inflight": 1,
        "max_inflight": 8,
        "queue_depth": 0,
        "max_queue": 32,
        "admitted_total": total,
        "tenants": {"t1": {"allowed": tenant_allowed, "limited": 1}},
    }


class TestMergeHttpSnapshots:
    def test_counters_sum_and_requests_fold_by_key(self):
        merged = merge_http_snapshots([_http_snapshot(10), _http_snapshot(4)])
        assert merged["requests_total"] == 14
        assert merged["requests"] == [
            {"endpoint": "/v1/generate", "method": "POST", "status": 200,
             "count": 14}
        ]
        assert merged["status_classes"]["2xx"] == 14
        assert merged["shed_total"] == 2
        assert merged["latency"]["count"] == 14
        assert merged["replicas_reporting"] == 2

    def test_tenant_buckets_take_max_not_sum(self):
        # Fleet tenant buckets are store-backed and shared: each replica
        # reports the same durable row; summing would multiply it.
        merged = merge_http_snapshots(
            [_http_snapshot(tenant_allowed=5), _http_snapshot(tenant_allowed=7)]
        )
        assert merged["tenants"]["t1"]["allowed"] == 7
        # Per-tenant *rejections* are per-replica counters and do sum.
        assert merged["rate_limited_by_tenant"]["t1"] == 4

    def test_empty_and_falsy_snapshots_are_skipped(self):
        merged = merge_http_snapshots([{}, None, _http_snapshot(3)])
        assert merged["replicas_reporting"] == 1
        assert merged["requests_total"] == 3


# ----------------------------------------------------------------------
# The unified aggregator
# ----------------------------------------------------------------------
class TestMetricsAggregator:
    def test_snapshot_equals_the_manual_fold(self, tmp_path):
        """The digest check: the aggregator's engine section must be
        byte-identical to folding the journaled per-replica snapshots by
        hand with merge_stats_snapshots."""
        path = tmp_path / "s.db"
        store = ServeStateStore(path)
        per_replica = [
            {"counters": {"calls": 5, "ok": 5}, "n_events": 5,
             "max_events": 100, "dropped_events": 0},
            {"counters": {"calls": 3, "ok": 2}, "n_events": 3,
             "max_events": 100, "dropped_events": 1},
        ]
        for replica, stats in enumerate(per_replica):
            _record_stats(store, replica, stats)
        store.close()
        aggregator = MetricsAggregator(db=str(path))
        snapshot = aggregator.snapshot()
        expected = merge_stats_snapshots(per_replica)
        for section in ("counters", "latency"):
            assert json.dumps(snapshot[section], sort_keys=True) == json.dumps(
                expected[section], sort_keys=True
            )
        assert snapshot["fleet"]["replica_snapshots"] == 2

    def test_http_section_folds_only_when_reported(self, tmp_path):
        path = tmp_path / "s.db"
        store = ServeStateStore(path)
        _record_stats(store, 0, {"counters": {}, "http": _http_snapshot(6)})
        store.close()
        snapshot = MetricsAggregator(db=str(path)).snapshot()
        assert snapshot["http"]["requests_total"] == 6
        assert snapshot["http"]["replicas_reporting"] == 1

    def test_no_sources_is_a_well_formed_empty_snapshot(self, tmp_path):
        snapshot = MetricsAggregator(db=str(tmp_path / "missing.db")).snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["fleet"]["sources"] == 0

    def test_prometheus_rendering_works(self, tmp_path):
        path = tmp_path / "s.db"
        store = ServeStateStore(path)
        _record_stats(store, 
            0,
            {"counters": {"calls": 2}, "n_events": 2, "max_events": 10,
             "dropped_events": 0},
        )
        store.close()
        text = MetricsAggregator(db=str(path)).to_prometheus()
        assert "repro_invocations_total" in text
        assert 'repro_engine_events_total{event="calls"} 2' in text


class TestNoPhantomWorkers:
    """The serving fleet's ``http-server`` campaign is unsharded, so a
    scrape shows its replicas and no shard worker."""

    @staticmethod
    def _fleet_db(store):
        """What a replica journals: the http-server campaign and its row."""
        from repro.serve.sampling import open_http_campaign

        open_http_campaign(store.journal, 2014)
        _record_stats(store, 0, {"counters": {"calls": 2}})

    @staticmethod
    def _assert_replicas_only(snapshot, text):
        assert "workers" not in snapshot
        assert snapshot["fleet"]["worker_snapshots"] == 0
        assert snapshot["fleet"]["replica_snapshots"] == 1
        assert "repro_campaign_worker_" not in text
        assert 'repro_engine_events_total{event="calls"} 2' in text

    def test_supervisor_scrape(self, tmp_path, monkeypatch):
        import sqlite3

        from repro.serve.app import ServeConfig
        from repro.serve.fleet import FleetConfig, ServeSupervisor

        supervisor = ServeSupervisor(
            ServeConfig(host="127.0.0.1", port=0, db=str(tmp_path / "f.db")),
            FleetConfig(replicas=1, metrics_port=0),
        )
        # Only the supervisor's own half: no replica process is spawned.
        monkeypatch.setattr(
            supervisor._supervisor, "spawn", lambda child, kind: None
        )
        try:
            supervisor.start()
            self._fleet_db(supervisor.store)
            aggregator = supervisor.metrics_server.exporter
            connects = []
            connect = sqlite3.connect
            monkeypatch.setattr(
                sqlite3, "connect",
                lambda *args, **kwargs: connects.append(args)
                or connect(*args, **kwargs),
            )
            snapshot = aggregator.snapshot()
            monkeypatch.setattr(sqlite3, "connect", connect)
            text = aggregator.to_prometheus()
        finally:
            supervisor.close()
        assert connects == []
        self._assert_replicas_only(snapshot, text)

    def test_fleet_metrics_for_an_unsharded_campaign(self, tmp_path):
        """``metrics --fleet --campaign`` naming an unsharded campaign."""
        from repro.serve.sampling import HTTP_CAMPAIGN_ID

        path = tmp_path / "f.db"
        store = ServeStateStore(path)
        self._fleet_db(store)
        store.close()
        aggregator = MetricsAggregator(db=str(path), campaign_id=HTTP_CAMPAIGN_ID)
        self._assert_replicas_only(
            aggregator.snapshot(), aggregator.to_prometheus()
        )


# ----------------------------------------------------------------------
# merge_stats_snapshots edge cases (the satellite)
# ----------------------------------------------------------------------
class TestMergeStatsEdgeCases:
    def test_empty_list_is_a_well_formed_zero_snapshot(self):
        merged = merge_stats_snapshots([])
        assert merged["counters"] == {}
        assert merged["latency"]["count"] == 0
        assert "breaker" not in merged

    def test_falsy_snapshots_are_skipped(self):
        merged = merge_stats_snapshots([None, {}, {"counters": {"calls": 1}}])
        assert merged["counters"]["calls"] == 1

    def test_disjoint_histogram_buckets_absorb_exactly(self):
        # One all-fast worker, one all-slow: the buckets are disjoint
        # and the merged histogram must keep both populations.
        fast = {
            "counters": {},
            "latency": {"count": 4, "sum_ms": 0.2, "max_ms": 0.05,
                        "cumulative_buckets": [[0.05, 4]]},
        }
        slow = {
            "counters": {},
            "latency": {"count": 2, "sum_ms": 900.0, "max_ms": 600.0,
                        "cumulative_buckets": [
                            [0.05, 0], [0.1, 0], [0.25, 0], [0.5, 0],
                            [1.0, 0], [2.5, 0], [5.0, 0], [10.0, 0],
                            [25.0, 0], [50.0, 0], [100.0, 0], [250.0, 0],
                            [500.0, 1], [1000.0, 2],
                        ]},
        }
        merged = merge_stats_snapshots([fast, slow])
        assert merged["latency"]["count"] == 6
        assert merged["latency"]["max_ms"] == 600.0
        # p50 lands in the fast population, p95 in the slow one.
        assert merged["latency"]["p50_ms"] <= 0.05
        assert merged["latency"]["p95_ms"] >= 500.0

    def test_breaker_state_conflicts_take_the_worst(self):
        closed = {"counters": {}, "breaker": {"p": {
            "state": "closed", "consecutive_failures": 0, "times_opened": 0,
            "fast_failures": 0,
        }}}
        open_ = {"counters": {}, "breaker": {"p": {
            "state": "open", "consecutive_failures": 4, "times_opened": 1,
            "fast_failures": 7,
        }}}
        half = {"counters": {}, "breaker": {"p": {
            "state": "half-open", "consecutive_failures": 1, "times_opened": 2,
            "fast_failures": 3,
        }}}
        merged = merge_stats_snapshots([closed, open_, half])
        circuit = merged["breaker"]["p"]
        assert circuit["state"] == "open"
        assert circuit["consecutive_failures"] == 4
        assert circuit["times_opened"] == 3
        assert circuit["fast_failures"] == 10

    def test_mixed_schema_versions_merge(self):
        # An old-era snapshot (counters only) merges with a modern one
        # carrying sections the old one predates; unknown future
        # sections are ignored rather than crashing the fold.
        ancient = {"counters": {"calls": 1}}
        modern = {
            "counters": {"calls": 2},
            "n_events": 2,
            "max_events": 50,
            "dropped_events": 0,
            "cache": {"size": 1, "maxsize": 8, "hits": 1, "negative_hits": 0,
                      "misses": 1, "evictions": 0, "negative_expired": 0},
            "watchdog": {"budget_s": 1.0, "timeouts": 1,
                         "abandoned_in_flight": 0},
            "from_the_future": {"shiny": True},
        }
        merged = merge_stats_snapshots([ancient, modern])
        assert merged["counters"]["calls"] == 3
        assert merged["cache"]["hits"] == 1
        assert merged["watchdog"]["timeouts"] == 1
        assert "from_the_future" not in merged
