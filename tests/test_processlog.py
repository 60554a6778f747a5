"""Tests of the process journal core (:mod:`repro.processlog`): the one
liveness/restart fold behind both shard-worker and replica rows, status
rows that keep their stats snapshot across a stats-less write, span rows
tagged with the role and slot of the process that journaled them, and
read-only access that never creates a file or a table."""

from __future__ import annotations

import sqlite3

import pytest

from repro.campaign import (
    CampaignJournal,
    shard_campaign_id,
    shard_journal_path,
    worker_rows,
)
from repro.obs.aggregate import MetricsAggregator, collect_fleet_spans
from repro.processlog import (
    FLEET_SCOPE,
    REPLICA,
    SHARD_WORKER,
    SUPERVISOR,
    collect,
    has_status,
    reading,
)
from repro.serve.state import ServeStateStore


class WallClock:
    def __init__(self, now=1_000_000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _span(module_id="m1"):
    return {
        "name": "invoke",
        "module_id": module_id,
        "start_ms": 1.0,
        "duration_ms": 2.5,
        "outcome": "ok",
        "attributes": {},
    }


def _tables(path):
    connection = sqlite3.connect(str(path))
    try:
        return sorted(
            row[0]
            for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        )
    finally:
        connection.close()


# ----------------------------------------------------------------------
# The liveness/restart fold, once per role
# ----------------------------------------------------------------------
class ShardWorkers:
    """Two shard workers: heartbeats in the shard journals, lifecycle
    events in the main journal, rows from ``worker_rows``."""

    slot_key = "shard"

    def __init__(self, tmp_path, clock):
        self.db = tmp_path / "campaign.sqlite"
        self.clock = clock
        journal = CampaignJournal(self.db)
        try:
            journal.create(
                "c", 1, ["m1", "m2"], {"workers": 2, "heartbeat_timeout": 10.0}
            )
        finally:
            journal.close()

    def beat(self, slot, phase, attempt=1):
        journal = CampaignJournal(shard_journal_path(self.db, slot))
        try:
            journal.processes.record_status(
                SHARD_WORKER, shard_campaign_id("c", slot), slot,
                pid=100 + slot, attempt=attempt, phase=phase, work=7,
                started_wall=self.clock(), stats={},
                heartbeat_wall=self.clock(),
            )
        finally:
            journal.close()

    def event(self, slot, kind, detail=""):
        journal = CampaignJournal(self.db)
        try:
            journal.processes.record_event(
                SHARD_WORKER, "c", slot, kind, detail, t_wall=self.clock()
            )
        finally:
            journal.close()

    def rows(self):
        return worker_rows(self.db, "c", now=self.clock())

    def close(self):
        pass


class Replicas:
    """Two serving replicas in one state store, rows from
    ``replica_rows``."""

    slot_key = "replica"

    def __init__(self, tmp_path, clock):
        self.clock = clock
        self.store = ServeStateStore(tmp_path / "serve.db", wall_clock=clock)

    def beat(self, slot, phase, attempt=1):
        self.store.processes.record_status(
            REPLICA, FLEET_SCOPE, slot, pid=100 + slot, attempt=attempt,
            phase=phase, work=7, started_wall=self.clock(),
        )

    def event(self, slot, kind, detail=""):
        self.store.record_event(slot, kind, detail)

    def rows(self):
        return self.store.replica_rows(now=self.clock(), heartbeat_timeout=10.0)

    def close(self):
        self.store.close()


@pytest.fixture(params=[SHARD_WORKER, REPLICA])
def fleet(request, tmp_path):
    world = {SHARD_WORKER: ShardWorkers, REPLICA: Replicas}[request.param]
    fleet = world(tmp_path, WallClock())
    yield fleet
    fleet.close()


class TestLivenessFold:
    def test_rows_liveness_and_restart_counts(self, fleet):
        fleet.beat(0, "running")
        fleet.beat(1, "running", attempt=2)
        fleet.event(1, "crash", "exit code 137")
        fleet.event(1, "restart", "pid 101 attempt 2")
        fleet.clock.advance(5.0)
        rows = fleet.rows()
        assert [row[fleet.slot_key] for row in rows] == [0, 1]
        assert all(row["alive"] for row in rows)
        assert rows[0]["restarts"] == 0
        assert rows[1]["restarts"] == 1
        assert rows[0]["heartbeat_age"] == pytest.approx(5.0)
        # Past the timeout the same rows age out of liveness — that is
        # how a dead fleet's post-mortem reads 0 alive with no process
        # checks at all.
        fleet.clock.advance(10.0)
        assert not any(row["alive"] for row in fleet.rows())

    def test_non_running_phase_is_never_alive(self, fleet):
        fleet.beat(0, "drained")
        assert fleet.rows()[0]["alive"] is False


# ----------------------------------------------------------------------
# Status rows
# ----------------------------------------------------------------------
class TestStatusRows:
    def test_drained_row_keeps_the_last_stats_snapshot(self, tmp_path):
        store = ServeStateStore(tmp_path / "serve.db")
        try:
            log = store.processes
            for phase, stats in (
                ("running", {"counters": {"calls": 1}}),
                ("running", {"counters": {"calls": 4}}),
                ("drained", None),
            ):
                log.record_status(
                    REPLICA, FLEET_SCOPE, 0, pid=9, attempt=1, phase=phase,
                    work=4, started_wall=0.0, stats=stats,
                )
            assert store.replica_status(0)["phase"] == "drained"
            assert store.processes.stats(REPLICA, FLEET_SCOPE) == {
                0: {"counters": {"calls": 4}}
            }
        finally:
            store.close()

    def test_rows_without_stats_report_none(self, tmp_path):
        store = ServeStateStore(tmp_path / "serve.db")
        try:
            store.processes.record_status(
                REPLICA, FLEET_SCOPE, 0, pid=9, attempt=1, phase="running",
                work=0, started_wall=0.0,
            )
            assert store.processes.stats(REPLICA, FLEET_SCOPE) == {}
            assert [row["replica"] for row in store.replicas()] == [0]
        finally:
            store.close()


# ----------------------------------------------------------------------
# Span rows
# ----------------------------------------------------------------------
class TestSpanRows:
    def test_campaign_spans_carry_their_process_role_and_slot(self, tmp_path):
        journal = CampaignJournal(tmp_path / "c.db")
        try:
            journal.record_span("c", _span("a"))
            journal.record_span(shard_campaign_id("c", 3), _span("b"))
            assert journal.processes.spans("c") == [(SUPERVISOR, None, _span("a"))]
            assert journal.processes.spans(shard_campaign_id("c", 3)) == [
                (SHARD_WORKER, 3, _span("b"))
            ]
        finally:
            journal.close()

    def test_collector_stamps_the_row_identity(self, tmp_path):
        db = tmp_path / "c.db"
        journal = CampaignJournal(db)
        journal.create("c", 1, ["a", "b"], {"workers": 2})
        journal.record_span("c", _span("a"))
        journal.close()
        shard = CampaignJournal(shard_journal_path(db, 1))
        shard.record_span(shard_campaign_id("c", 1), _span("b"))
        shard.close()
        spans = collect_fleet_spans(str(db), "c")
        assert [
            (span.module_id, span.attributes["process_role"],
             span.attributes.get("process_id"))
            for span in spans
        ] == [("a", SUPERVISOR, None), ("b", SHARD_WORKER, 1)]


# ----------------------------------------------------------------------
# Read-only access
# ----------------------------------------------------------------------
class TestReadOnly:
    def test_probe_and_collector_create_no_table(self, tmp_path):
        path = tmp_path / "c.db"
        journal = CampaignJournal(path)
        journal.create("c", 1, ["m"], {"workers": 2})
        journal.close()
        foreign = tmp_path / "foreign.db"
        connection = sqlite3.connect(str(foreign))
        connection.execute("CREATE TABLE x (a)")
        connection.commit()
        connection.close()
        before = {name: _tables(name) for name in (path, foreign)}
        for db in (path, foreign):
            assert not has_status(db, REPLICA, FLEET_SCOPE)
            assert collect([(str(db), FLEET_SCOPE), (str(db), "c")]) == []
            assert collect_fleet_spans(str(db), "c") == []
            assert MetricsAggregator(db=str(db)).snapshot()["fleet"][
                "sources"
            ] == 0
        with reading(foreign) as log:
            assert log is None
        assert {name: _tables(name) for name in (path, foreign)} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.db", "foreign.db"]

    def test_missing_path_creates_no_file(self, tmp_path):
        missing = tmp_path / "nope.db"
        assert not has_status(missing, REPLICA, FLEET_SCOPE)
        assert not has_status("", REPLICA, FLEET_SCOPE)
        assert collect([(str(missing), "c")]) == []
        assert collect_fleet_spans(str(missing), "c") == []
        MetricsAggregator(db=str(missing)).snapshot()
        with reading(missing) as log:
            assert log is None
        assert list(tmp_path.iterdir()) == []
