"""Durable serving state shared by every replica of a fleet.

A single-process :class:`~repro.serve.app.AnnotationServer` keeps its
memoized generation reports, its registration set and its per-tenant
token buckets in process memory — all of which die with the process and
none of which can be shared once ``repro-cli serve --replicas N`` runs
several replicas behind one ``SO_REUSEPORT`` socket.  The
:class:`ServeStateStore` closes that shared-nothing gap with the same
SQLite WAL discipline the campaign journal already trusts
(:class:`~repro.campaign.journal.CampaignJournal`): WAL mode,
``synchronous=NORMAL``, a generous ``busy_timeout``, and idempotent
upserts, so any number of replica processes read and write one file
concurrently and a ``kill -9`` anywhere loses at most the uncommitted
statement.

Tables:

``serve_modules``
    The shared registration set.  A module registered through any
    replica is served by all of them.
``serve_reports``
    Memoized §3 generation reports (full
    :func:`~repro.campaign.journal.report_to_dict` round-trip), so one
    replica's work answers every replica's ``/v1/generate`` and a
    restarted fleet serves ``cached: true`` immediately.
``serve_tenants``
    Per-tenant token buckets on the *wall* clock (monotonic clocks do
    not survive a restart, wall clocks do).  ``charge`` is one
    ``BEGIN IMMEDIATE`` read-modify-write transaction, so concurrent
    replicas never double-spend a token and a restarted fleet resumes
    tenant accounting from exactly the journaled balance.
``serve_replicas`` / ``serve_events``
    Replica heartbeat rows and the fleet lifecycle timeline
    (spawn / crash / restart / heartbeat-miss / drain), which is what
    ``repro-cli serve fleet`` and the ``repro_serve_replica_*`` gauges
    reconstruct post-mortem — from the file alone, exactly like
    ``repro-cli campaign workers``.
``serve_spans``
    The fleet flight recorder: every engine span tree a replica
    completes, committed one transaction at a time — the exact
    ``campaign_spans`` discipline, with a ``replica`` column instead of
    a campaign id.  This is what lets ``repro-cli trace ID --fleet``
    stitch one request's trace across replicas after any of them was
    SIGKILLed.
``serve_replica_stats``
    Each replica's latest full ``engine.stats()`` snapshot (last write
    wins, like shard heartbeats), so the fleet-level ``/metrics`` fold
    (:class:`repro.obs.aggregate.MetricsAggregator`) reconstructs from
    the file alone.

The store can live inside the campaign journal's own SQLite file (the
table namespaces are disjoint), which is what the CLI does: one ``--db``
carries campaigns, HTTP samples, alerts, and the serving fleet's state.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from typing import Callable

from repro.campaign.journal import open_wal

_SCHEMA = """
CREATE TABLE IF NOT EXISTS serve_modules (
    module_id TEXT PRIMARY KEY,
    registered_wall REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS serve_reports (
    module_id TEXT PRIMARY KEY,
    report_json TEXT NOT NULL,
    created_wall REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS serve_tenants (
    tenant TEXT PRIMARY KEY,
    tokens REAL NOT NULL,
    refilled_wall REAL NOT NULL,
    rate REAL NOT NULL,
    burst REAL NOT NULL,
    allowed INTEGER NOT NULL DEFAULT 0,
    limited INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS serve_replicas (
    replica INTEGER PRIMARY KEY,
    pid INTEGER NOT NULL,
    attempt INTEGER NOT NULL,
    phase TEXT NOT NULL,
    requests_total INTEGER NOT NULL,
    started_wall REAL NOT NULL,
    heartbeat_wall REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS serve_events (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    t_wall REAL NOT NULL,
    replica INTEGER NOT NULL,
    kind TEXT NOT NULL,
    detail TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS serve_spans (
    span_seq INTEGER PRIMARY KEY AUTOINCREMENT,
    replica INTEGER NOT NULL,
    module_id TEXT NOT NULL,
    outcome TEXT NOT NULL,
    start_ms REAL NOT NULL,
    duration_ms REAL NOT NULL,
    span_json TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS serve_spans_by_replica
    ON serve_spans (replica, module_id);
CREATE TABLE IF NOT EXISTS serve_replica_stats (
    replica INTEGER PRIMARY KEY,
    t_wall REAL NOT NULL,
    stats_json TEXT NOT NULL
);
"""


def has_serve_state(path: str) -> bool:
    """Whether ``path`` is a SQLite file already carrying fleet state.

    Read-only (never creates tables) — this is what ``repro-cli top``
    uses to decide whether a journal also has replica rows to render.
    """
    if not path or not os.path.exists(path):
        return False
    try:
        connection = sqlite3.connect(path)
    except sqlite3.Error:
        return False
    try:
        row = connection.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table' "
            "AND name = 'serve_replicas'"
        ).fetchone()
        if row is None:
            return False
        return (
            connection.execute("SELECT 1 FROM serve_replicas LIMIT 1").fetchone()
            is not None
        )
    except sqlite3.Error:
        return False
    finally:
        connection.close()


class ServeStateStore:
    """Durable, multi-process serving state over one SQLite WAL file.

    Args:
        path: The SQLite file (shareable with a campaign journal).
        busy_timeout: Seconds a blocked statement waits for another
            process's lock before erroring.
        wall_clock: Wall-clock source (token refill and heartbeat ages
            must survive restarts, so monotonic clocks don't qualify).
    """

    def __init__(
        self,
        path: str,
        busy_timeout: float = 10.0,
        wall_clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = str(path)
        self._wall = wall_clock
        self._lock = threading.Lock()
        # Autocommit (isolation_level=None): single statements commit on
        # their own; the one read-modify-write path (charge) manages its
        # BEGIN IMMEDIATE transaction explicitly.
        self._connection = open_wal(
            self.path, _SCHEMA, busy_timeout, isolation_level=None
        )

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    # ------------------------------------------------------------------
    # Registration set
    # ------------------------------------------------------------------
    def register_module(self, module_id: str) -> bool:
        """Admit ``module_id`` into the shared serving set.

        Returns:
            True when this call inserted the row (first registration
            across the whole fleet), False when it was already there.
        """
        with self._lock:
            cursor = self._connection.execute(
                "INSERT OR IGNORE INTO serve_modules "
                "(module_id, registered_wall) VALUES (?, ?)",
                (module_id, self._wall()),
            )
            return cursor.rowcount > 0

    def has_module(self, module_id: str) -> bool:
        with self._lock:
            row = self._connection.execute(
                "SELECT 1 FROM serve_modules WHERE module_id = ?", (module_id,)
            ).fetchone()
        return row is not None

    def module_ids(self) -> "list[str]":
        with self._lock:
            rows = self._connection.execute(
                "SELECT module_id FROM serve_modules ORDER BY module_id"
            ).fetchall()
        return [row[0] for row in rows]

    # ------------------------------------------------------------------
    # Memoized generation reports
    # ------------------------------------------------------------------
    def store_report(self, module_id: str, report: dict) -> None:
        """Upsert one memoized generation report (idempotent — every
        replica regenerating the same module writes the same bytes)."""
        with self._lock:
            self._connection.execute(
                "INSERT OR REPLACE INTO serve_reports "
                "(module_id, report_json, created_wall) VALUES (?, ?, ?)",
                (module_id, json.dumps(report, sort_keys=True), self._wall()),
            )

    def load_report(self, module_id: str) -> "dict | None":
        with self._lock:
            row = self._connection.execute(
                "SELECT report_json FROM serve_reports WHERE module_id = ?",
                (module_id,),
            ).fetchone()
        return json.loads(row[0]) if row is not None else None

    def report_count(self) -> int:
        with self._lock:
            (count,) = self._connection.execute(
                "SELECT COUNT(*) FROM serve_reports"
            ).fetchone()
        return count

    # ------------------------------------------------------------------
    # Durable per-tenant token buckets
    # ------------------------------------------------------------------
    def configure_tenant(self, tenant: str, rate: float, burst: float) -> None:
        """Give ``tenant`` a bespoke budget, resetting it to full."""
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be at least 1")
        with self._lock:
            self._connection.execute(
                "INSERT OR REPLACE INTO serve_tenants "
                "(tenant, tokens, refilled_wall, rate, burst, allowed, limited) "
                "VALUES (?, ?, ?, ?, ?, 0, 0)",
                (tenant, float(burst), self._wall(), rate, float(burst)),
            )

    def charge_tenant(
        self, tenant: str, rate: float, burst: float
    ) -> "tuple[bool, float]":
        """Spend one token from ``tenant``'s durable bucket.

        One ``BEGIN IMMEDIATE`` transaction — the write lock serializes
        concurrent replicas so a token is never spent twice.  A tenant
        first seen here gets a full bucket with the given defaults; a
        row written earlier (by any process, before any restart) keeps
        its own rate/burst, so bespoke budgets survive the fleet.

        Returns:
            ``(True, 0.0)`` when admitted; ``(False, retry_after_s)``
            when the bucket is empty.
        """
        now = self._wall()
        with self._lock:
            self._connection.execute("BEGIN IMMEDIATE")
            try:
                row = self._connection.execute(
                    "SELECT tokens, refilled_wall, rate, burst, allowed, "
                    "limited FROM serve_tenants WHERE tenant = ?",
                    (tenant,),
                ).fetchone()
                if row is None:
                    tokens, refilled = float(burst), now
                    row_rate, row_burst = rate, float(burst)
                    allowed, limited = 0, 0
                else:
                    tokens, refilled, row_rate, row_burst, allowed, limited = row
                # max(0, ...) guards a wall clock stepping backwards.
                tokens = min(
                    row_burst, tokens + max(0.0, now - refilled) * row_rate
                )
                if tokens >= 1.0:
                    tokens -= 1.0
                    allowed += 1
                    outcome = (True, 0.0)
                else:
                    limited += 1
                    outcome = (False, (1.0 - tokens) / row_rate)
                self._connection.execute(
                    "INSERT OR REPLACE INTO serve_tenants "
                    "(tenant, tokens, refilled_wall, rate, burst, allowed, "
                    "limited) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (tenant, tokens, now, row_rate, row_burst, allowed, limited),
                )
                self._connection.execute("COMMIT")
            except BaseException:
                self._connection.execute("ROLLBACK")
                raise
        return outcome

    def tenant_snapshot(self) -> dict:
        """``{tenant: bucket snapshot}`` in the in-memory limiter's shape."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT tenant, tokens, rate, burst, allowed, limited "
                "FROM serve_tenants ORDER BY tenant"
            ).fetchall()
        return {
            tenant: {
                "allowed": allowed,
                "limited": limited,
                "tokens": round(tokens, 3),
                "rate": rate,
                "burst": burst,
            }
            for tenant, tokens, rate, burst, allowed, limited in rows
        }

    # ------------------------------------------------------------------
    # Replica heartbeats + fleet lifecycle timeline
    # ------------------------------------------------------------------
    def record_replica(
        self,
        replica: int,
        pid: int,
        attempt: int,
        phase: str,
        requests_total: int,
        started_wall: float,
        heartbeat_wall: "float | None" = None,
    ) -> None:
        with self._lock:
            self._connection.execute(
                "INSERT OR REPLACE INTO serve_replicas "
                "(replica, pid, attempt, phase, requests_total, started_wall, "
                "heartbeat_wall) VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    replica,
                    pid,
                    attempt,
                    phase,
                    requests_total,
                    started_wall,
                    heartbeat_wall if heartbeat_wall is not None else self._wall(),
                ),
            )

    def replica_status(self, replica: int) -> "dict | None":
        with self._lock:
            row = self._connection.execute(
                "SELECT replica, pid, attempt, phase, requests_total, "
                "started_wall, heartbeat_wall FROM serve_replicas "
                "WHERE replica = ?",
                (replica,),
            ).fetchone()
        return self._replica_dict(row) if row is not None else None

    def replicas(self) -> "list[dict]":
        with self._lock:
            rows = self._connection.execute(
                "SELECT replica, pid, attempt, phase, requests_total, "
                "started_wall, heartbeat_wall FROM serve_replicas "
                "ORDER BY replica"
            ).fetchall()
        return [self._replica_dict(row) for row in rows]

    @staticmethod
    def _replica_dict(row) -> dict:
        replica, pid, attempt, phase, requests, started, heartbeat = row
        return {
            "replica": replica,
            "pid": pid,
            "attempt": attempt,
            "phase": phase,
            "requests_total": requests,
            "started_wall": started,
            "heartbeat_wall": heartbeat,
        }

    def record_event(
        self,
        replica: int,
        kind: str,
        detail: str = "",
        t_wall: "float | None" = None,
    ) -> None:
        with self._lock:
            self._connection.execute(
                "INSERT INTO serve_events (t_wall, replica, kind, detail) "
                "VALUES (?, ?, ?, ?)",
                (t_wall if t_wall is not None else self._wall(), replica, kind,
                 detail),
            )

    def events(self) -> "list[dict]":
        with self._lock:
            rows = self._connection.execute(
                "SELECT seq, t_wall, replica, kind, detail FROM serve_events "
                "ORDER BY seq"
            ).fetchall()
        return [
            {
                "seq": seq,
                "t_wall": t_wall,
                "replica": replica,
                "kind": kind,
                "detail": detail,
            }
            for seq, t_wall, replica, kind, detail in rows
        ]

    # ------------------------------------------------------------------
    # Replica spans (the fleet flight recorder) + stats snapshots
    # ------------------------------------------------------------------
    def record_span(self, replica: int, span: dict) -> None:
        """Commit one completed replica span tree.

        The ``campaign_spans`` discipline verbatim: each span is its own
        committed transaction, so a SIGKILLed replica keeps every trace
        that finished before the kill, and fleet trace assembly needs
        nothing but this file.
        """
        with self._lock:
            self._connection.execute(
                "INSERT INTO serve_spans "
                "(replica, module_id, outcome, start_ms, duration_ms, "
                "span_json) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    replica,
                    span.get("module_id", ""),
                    span.get("outcome", "ok"),
                    span.get("start_ms", 0.0),
                    span.get("duration_ms", 0.0),
                    json.dumps(span, sort_keys=True),
                ),
            )

    def spans(
        self,
        replica: "int | None" = None,
        module_id: "str | None" = None,
    ) -> "list[dict]":
        """Journaled replica span trees, recording order, each dict
        annotated with its ``replica`` under ``_replica`` (the span
        payload itself is untouched — attributes carry the trace id)."""
        query = (
            "SELECT replica, span_json FROM serve_spans WHERE 1 = 1"
        )
        params: tuple = ()
        if replica is not None:
            query += " AND replica = ?"
            params += (replica,)
        if module_id is not None:
            query += " AND module_id = ?"
            params += (module_id,)
        query += " ORDER BY span_seq"
        with self._lock:
            rows = self._connection.execute(query, params).fetchall()
        spans = []
        for row_replica, payload in rows:
            span = json.loads(payload)
            span["_replica"] = row_replica
            spans.append(span)
        return spans

    def span_count(self) -> int:
        with self._lock:
            (count,) = self._connection.execute(
                "SELECT COUNT(*) FROM serve_spans"
            ).fetchone()
        return count

    def record_replica_stats(self, replica: int, stats: dict) -> None:
        """Upsert one replica's full engine-stats snapshot (last write
        wins, exactly like shard heartbeat stats)."""
        with self._lock:
            self._connection.execute(
                "INSERT OR REPLACE INTO serve_replica_stats "
                "(replica, t_wall, stats_json) VALUES (?, ?, ?)",
                (replica, self._wall(), json.dumps(stats, sort_keys=True)),
            )

    def replica_stats(self) -> "dict[int, dict]":
        """``{replica: stats snapshot}`` for the fleet metrics fold."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT replica, stats_json FROM serve_replica_stats "
                "ORDER BY replica"
            ).fetchall()
        return {replica: json.loads(payload) for replica, payload in rows}

    # ------------------------------------------------------------------
    def replica_rows(
        self,
        now: "float | None" = None,
        heartbeat_timeout: float = 10.0,
    ) -> "list[dict]":
        """Post-mortem fleet rows in the shape ``render_prometheus``'s
        ``replicas`` section and the dashboard panel consume.

        ``alive`` means: the replica's phase is ``running`` and its last
        heartbeat is fresher than ``heartbeat_timeout`` — derived from
        the file alone, so it works while the fleet runs and after it is
        gone (a dead fleet's heartbeats age out of liveness naturally).
        Restart counts are reconstructed from the event timeline.
        """
        now = now if now is not None else self._wall()
        restarts: "dict[int, int]" = {}
        for event in self.events():
            if event["kind"] == "restart":
                restarts[event["replica"]] = restarts.get(event["replica"], 0) + 1
        rows = []
        for status in self.replicas():
            heartbeat_age = max(0.0, now - status["heartbeat_wall"])
            rows.append(
                {
                    **status,
                    "heartbeat_age": heartbeat_age,
                    "restarts": restarts.get(status["replica"], 0),
                    "alive": (
                        status["phase"] == "running"
                        and heartbeat_age <= heartbeat_timeout
                    ),
                }
            )
        return rows


__all__ = ["ServeStateStore", "has_serve_state"]
