"""Durable serving state shared by every replica of a fleet.

A single-process :class:`~repro.serve.app.AnnotationServer` keeps its
memoized generation reports, its registration set and its per-tenant
token buckets in process memory — all of which die with the process and
none of which can be shared once ``repro-cli serve --replicas N`` runs
several replicas behind one ``SO_REUSEPORT`` socket.  The
:class:`ServeStateStore` closes that shared-nothing gap on the campaign
journal's own connection
(:class:`~repro.campaign.journal.CampaignJournal`): WAL mode,
``synchronous=NORMAL``, a generous ``busy_timeout``, and idempotent
upserts, each committed before the journal's lock is released, so any
number of replica processes read and write one file concurrently and a
``kill -9`` anywhere loses at most the uncommitted statement.

Registrations and memoized §3 reports are journal rows of the campaign
:data:`~repro.serve.sampling.HTTP_CAMPAIGN_ID` (planned modules, ``done``
entries), so one replica's work answers every replica's ``/v1/generate``
and a restarted fleet serves ``cached: true`` immediately.  The store
keeps only what has no campaign analogue:

``serve_tenants``
    Per-tenant token buckets on the *wall* clock (monotonic clocks do
    not survive a restart, wall clocks do).  ``charge`` is one
    ``BEGIN IMMEDIATE`` read-modify-write transaction, so concurrent
    replicas never double-spend a token and a restarted fleet resumes
    tenant accounting from exactly the journaled balance.
``process_status`` / ``process_events`` / ``process_spans``
    The process journal (:mod:`repro.processlog`) under role
    ``replica``, the tables a sharded campaign's workers write too:
    each replica's heartbeat row with its latest full ``engine.stats()``
    snapshot (what the fleet ``/metrics`` fold,
    :class:`repro.obs.aggregate.MetricsAggregator`, reads), the fleet
    lifecycle timeline (spawn / crash / restart / heartbeat-miss /
    drain) behind ``repro-cli serve fleet`` and the
    ``repro_serve_replica_*`` gauges, and every engine span tree a
    replica completes, which lets ``repro-cli trace ID --fleet`` stitch
    one request's trace across replicas after any of them was
    SIGKILLed — all from the file alone.

The store lives inside a campaign journal: it opens one
:class:`~repro.campaign.journal.CampaignJournal` on its file, exposes it
as :attr:`ServeStateStore.journal`, and runs its own table and process
log on that journal's connection and lock.  So one ``--db`` carries
campaigns, HTTP samples, alerts and the serving fleet's state, and a
serving process holds one connection to it.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.campaign.journal import CampaignJournal
from repro.processlog import FLEET_SCOPE, REPLICA, ProcessLog
from repro.serve.ratelimit import spend_token

_SCHEMA = """
CREATE TABLE IF NOT EXISTS serve_tenants (
    tenant TEXT PRIMARY KEY,
    tokens REAL NOT NULL,
    refilled_wall REAL NOT NULL,
    rate REAL NOT NULL,
    burst REAL NOT NULL,
    allowed INTEGER NOT NULL DEFAULT 0,
    limited INTEGER NOT NULL DEFAULT 0
);
"""


class ServeStateStore:
    """Durable, multi-process serving state over one SQLite WAL file.

    Args:
        path: The SQLite file, opened as a campaign journal.
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
        #: The file's campaign journal: this store's one connection.
        self.journal = CampaignJournal(self.path, busy_timeout)
        # The journal's connection opens a transaction before each
        # write, so every write below commits before the lock is
        # released (``with self._lock, self._connection``).
        self._connection = self.journal._connection
        self._lock = self.journal._lock
        with self._lock:
            self._connection.executescript(_SCHEMA)
        #: Heartbeat rows, lifecycle events and spans of the replicas,
        #: under role ``replica`` and scope ``FLEET_SCOPE``.
        self.processes = ProcessLog(self._connection, self._lock, wall_clock)

    def close(self) -> None:
        self.journal.close()

    # ------------------------------------------------------------------
    # Durable per-tenant token buckets
    # ------------------------------------------------------------------
    def configure_tenant(self, tenant: str, rate: float, burst: float) -> None:
        """Give ``tenant`` a bespoke budget, resetting it to full."""
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be at least 1")
        with self._lock, self._connection:
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
                tokens, admitted, retry_after = spend_token(
                    tokens, refilled, now, row_rate, row_burst
                )
                if admitted:
                    allowed += 1
                else:
                    limited += 1
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
        return admitted, retry_after

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
    # Replica heartbeats, fleet lifecycle timeline, spans, stats
    # ------------------------------------------------------------------
    def replica_status(self, replica: int) -> "dict | None":
        return next(iter(self.processes.status(REPLICA, FLEET_SCOPE, replica)), None)

    def replicas(self) -> "list[dict]":
        return self.processes.status(REPLICA, FLEET_SCOPE)

    def record_event(
        self,
        replica: int,
        kind: str,
        detail: str = "",
        t_wall: "float | None" = None,
    ) -> None:
        self.processes.record_event(
            REPLICA, FLEET_SCOPE, replica, kind, detail, t_wall=t_wall
        )

    def events(self) -> "list[dict]":
        return self.processes.events(REPLICA, FLEET_SCOPE)

    def spans(
        self,
        replica: "int | None" = None,
        module_id: "str | None" = None,
    ) -> "list[dict]":
        """Journaled replica span trees, recording order, each dict
        annotated with its ``replica`` under ``_replica`` (the span
        payload itself is untouched — attributes carry the trace id)."""
        return [
            {**span, "_replica": slot}
            for _, slot, span in self.processes.spans(FLEET_SCOPE, replica, module_id)
        ]

    def replica_rows(
        self,
        now: "float | None" = None,
        heartbeat_timeout: float = 10.0,
    ) -> "list[dict]":
        """Post-mortem fleet rows in the shape ``render_prometheus``'s
        ``replicas`` section and the dashboard panel consume: each
        replica's status row folded with the event timeline
        (:func:`repro.processlog.fold`)."""
        return self.processes.rows(
            REPLICA,
            FLEET_SCOPE,
            now if now is not None else self._wall(),
            heartbeat_timeout,
        )


__all__ = ["ServeStateStore"]
