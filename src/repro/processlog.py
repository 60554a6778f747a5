"""One process journal: the status, lifecycle and spans of every process.

Sharded campaigns and the serving fleet both run many processes, and
each leaves the same three records in a SQLite journal, keyed
``(role, scope, slot)``:

``process_status``
    One row per slot, last write wins: pid, attempt, phase, a work
    counter (a shard worker's invocations, a replica's requests), start
    and heartbeat wall times, and the latest ``engine.stats()`` snapshot
    — how per-process telemetry leaves a process without shared memory.
    A row written without a snapshot keeps the slot's last one.
``process_events``
    The lifecycle timeline (spawn / heartbeat-miss / crash / restart /
    drain / ...), one committed row per event.
``process_spans``
    The flight recorder: every completed engine span tree, one committed
    transaction each.  Spans are observations and never feed reports.

``role`` is the process role spans carry as ``process_role``
(:data:`SUPERVISOR`, :data:`SHARD_WORKER`, :data:`REPLICA`); ``scope``
is what the process works for (a campaign id, a shard campaign id, or
:data:`FLEET_SCOPE`); ``slot`` is the shard or replica number (``None``
for a span of the scope's own process).  Every
:class:`~repro.campaign.journal.CampaignJournal` carries these tables
(a :class:`~repro.serve.state.ServeStateStore` through the journal it
opens) and writes through :class:`ProcessLog`; readers that must not write open
files with :func:`reading`.  Process history in journals written before
these tables existed is not read.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

#: Process roles (the ``process_role`` span attribute of each).
SUPERVISOR = "supervisor"
SHARD_WORKER = "shard-worker"
REPLICA = "replica"

#: The scope of a serving fleet's rows (one fleet per state file).
FLEET_SCOPE = ""

SCHEMA = """
CREATE TABLE IF NOT EXISTS process_status (
    role TEXT NOT NULL,
    scope TEXT NOT NULL,
    slot INTEGER NOT NULL,
    worker INTEGER NOT NULL,
    pid INTEGER NOT NULL,
    attempt INTEGER NOT NULL,
    phase TEXT NOT NULL,
    work INTEGER NOT NULL,
    started_wall REAL NOT NULL,
    heartbeat_wall REAL NOT NULL,
    stats_json TEXT,
    PRIMARY KEY (role, scope, slot)
);
CREATE TABLE IF NOT EXISTS process_events (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    role TEXT NOT NULL,
    scope TEXT NOT NULL,
    slot INTEGER NOT NULL,
    worker INTEGER NOT NULL,
    t_wall REAL NOT NULL,
    kind TEXT NOT NULL,
    detail TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS process_events_by_scope
    ON process_events (scope, role);
CREATE TABLE IF NOT EXISTS process_spans (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    role TEXT NOT NULL,
    scope TEXT NOT NULL,
    slot INTEGER,
    module_id TEXT NOT NULL,
    span_json TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS process_spans_by_scope
    ON process_spans (scope, slot, module_id);
"""

_TABLES = {"process_status", "process_events", "process_spans"}

#: Each role's status and event columns, under the keys its readers
#: (``worker_rows``, ``replica_rows``, the CLI) use.
_STATUS_COLUMNS = {
    SHARD_WORKER: "slot AS shard, worker, pid, attempt, work AS invocations, "
    "phase, heartbeat_wall, stats_json AS stats",
    REPLICA: "slot AS replica, pid, attempt, phase, work AS requests_total, "
    "started_wall, heartbeat_wall",
}
_EVENT_COLUMNS = {
    SHARD_WORKER: "t_wall, worker, slot AS shard, kind, detail",
    REPLICA: "seq, t_wall, slot AS replica, kind, detail",
}
_SLOT_KEY = {SHARD_WORKER: "shard", REPLICA: "replica"}


class ProcessLog:
    """The process tables behind one journal connection.

    Shares its owner's connection and lock; every write is its own
    committed transaction, so a SIGKILL anywhere leaves a consistent
    file.  ``wall_clock`` stamps heartbeats and events given no time.
    """

    def __init__(
        self,
        connection: sqlite3.Connection,
        lock: threading.Lock,
        wall_clock: Callable[[], float] = time.time,
    ) -> None:
        self._connection = connection
        self._lock = lock
        self._wall = wall_clock

    def _write(self, sql: str, params: tuple) -> None:
        with self._lock, self._connection:
            self._connection.execute(sql, params)

    def _read(self, sql: str, params: tuple) -> "list[dict]":
        with self._lock:
            cursor = self._connection.execute(sql, params)
            names = [column[0] for column in cursor.description]
            return [dict(zip(names, row)) for row in cursor.fetchall()]

    def record_status(
        self,
        role: str,
        scope: str,
        slot: int,
        *,
        pid: int,
        attempt: int,
        phase: str,
        work: int,
        started_wall: float,
        worker: "int | None" = None,
        stats: "dict | None" = None,
        heartbeat_wall: "float | None" = None,
    ) -> None:
        """Upsert a status row (one statement per heartbeat).  ``worker``
        defaults to the slot and ``heartbeat_wall`` to now; without
        ``stats`` the slot's last snapshot is kept."""
        self._write(
            "INSERT INTO process_status VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?) "
            "ON CONFLICT (role, scope, slot) DO UPDATE SET "
            "worker = excluded.worker, pid = excluded.pid, "
            "attempt = excluded.attempt, phase = excluded.phase, "
            "work = excluded.work, started_wall = excluded.started_wall, "
            "heartbeat_wall = excluded.heartbeat_wall, "
            "stats_json = COALESCE(excluded.stats_json, stats_json)",
            (
                role,
                scope,
                slot,
                slot if worker is None else worker,
                pid,
                attempt,
                phase,
                work,
                started_wall,
                self._wall() if heartbeat_wall is None else heartbeat_wall,
                None if stats is None else json.dumps(stats, sort_keys=True),
            ),
        )

    def status(
        self, role: str, scope: str, slot: "int | None" = None
    ) -> "list[dict]":
        """The status rows of ``role`` under ``scope`` (one slot's, when
        given), slot order, in the role's keys."""
        rows = self._read(
            f"SELECT {_STATUS_COLUMNS[role]} FROM process_status "
            "WHERE role = ? AND scope = ? AND (? IS NULL OR slot = ?) "
            "ORDER BY slot",
            (role, scope, slot, slot),
        )
        if role == SHARD_WORKER:
            for row in rows:
                row["stats"] = json.loads(row["stats"] or "{}")
        return rows

    def stats(self, role: str, scope: str) -> "dict[int, dict]":
        """``{slot: latest stats snapshot}`` of every slot that has one."""
        rows = self._read(
            "SELECT slot, stats_json FROM process_status WHERE role = ? "
            "AND scope = ? AND stats_json IS NOT NULL ORDER BY slot",
            (role, scope),
        )
        return {row["slot"]: json.loads(row["stats_json"]) for row in rows}

    def record_event(
        self,
        role: str,
        scope: str,
        slot: int,
        kind: str,
        detail: str = "",
        worker: "int | None" = None,
        t_wall: "float | None" = None,
    ) -> None:
        """Commit one lifecycle event (``worker`` defaults to the slot,
        ``t_wall`` to now)."""
        self._write(
            "INSERT INTO process_events (role, scope, slot, worker, t_wall, "
            "kind, detail) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                role,
                scope,
                slot,
                slot if worker is None else worker,
                self._wall() if t_wall is None else t_wall,
                kind,
                detail,
            ),
        )

    def events(self, role: str, scope: str) -> "list[dict]":
        """The lifecycle timeline of ``role`` under ``scope``, recording
        order, in the role's keys."""
        return self._read(
            f"SELECT {_EVENT_COLUMNS[role]} FROM process_events "
            "WHERE scope = ? AND role = ? ORDER BY seq",
            (scope, role),
        )

    def rows(
        self, role: str, scope: str, now: float, heartbeat_timeout: float
    ) -> "list[dict]":
        """The status rows folded with the event log (:func:`fold`)."""
        return fold(
            role,
            self.status(role, scope),
            self.events(role, scope),
            now,
            heartbeat_timeout,
        )

    def record_span(
        self, role: str, scope: str, slot: "int | None", span: dict
    ) -> None:
        """Commit one completed span tree."""
        self._write(
            "INSERT INTO process_spans (role, scope, slot, module_id, "
            "span_json) VALUES (?, ?, ?, ?, ?)",
            (
                role,
                scope,
                slot,
                span.get("module_id", ""),
                json.dumps(span, sort_keys=True),
            ),
        )

    def spans(
        self,
        scope: str,
        slot: "int | None" = None,
        module_id: "str | None" = None,
    ) -> "list[tuple[str, int | None, dict]]":
        """``(role, slot, span dict)`` of every span tree journaled under
        ``scope`` (optionally one slot's, one module's), recording order."""
        rows = self._read(
            "SELECT role, slot, span_json FROM process_spans WHERE scope = ? "
            "AND (? IS NULL OR slot = ?) AND (? IS NULL OR module_id = ?) "
            "ORDER BY seq",
            (scope, slot, slot, module_id, module_id),
        )
        return [
            (row["role"], row["slot"], json.loads(row["span_json"]))
            for row in rows
        ]


def fold(
    role: str,
    rows: "list[dict]",
    events: "list[dict]",
    now: float,
    heartbeat_timeout: float,
) -> "list[dict]":
    """Each status row plus ``heartbeat_age``, ``restarts`` (the slot's
    ``restart`` events) and ``alive``: phase ``running`` and a heartbeat
    no older than ``heartbeat_timeout``, so a dead fleet's rows age out
    of liveness from the file alone.  A row whose ``heartbeat_wall`` is
    ``None`` has age ``None`` and is never alive."""
    key = _SLOT_KEY[role]
    restarts = Counter(
        event[key] for event in events if event["kind"] == "restart"
    )
    folded = []
    for row in rows:
        beat = row["heartbeat_wall"]
        age = None if beat is None else max(0.0, now - beat)
        alive = row["phase"] == "running" and age is not None
        folded.append(
            {
                **row,
                "heartbeat_age": age,
                "restarts": restarts[row[key]],
                "alive": alive and age <= heartbeat_timeout,
            }
        )
    return folded


@contextmanager
def reading(path: "str | os.PathLike | None") -> "Iterator[ProcessLog | None]":
    """A :class:`ProcessLog` over an existing journal, for reading only:
    ``None`` when ``path`` is empty or missing, is not SQLite, or has no
    process tables.  Never creates a file or a table."""
    if not path or not os.path.exists(str(path)):
        yield None
        return
    connection = sqlite3.connect(str(path), check_same_thread=False)
    try:
        try:
            names = {
                row[0]
                for row in connection.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
        except sqlite3.DatabaseError:
            names = set()
        yield ProcessLog(connection, threading.Lock()) if _TABLES <= names else None
    finally:
        connection.close()


def has_status(path: "str | os.PathLike | None", role: str, scope: str) -> bool:
    """Whether the journal at ``path`` holds a ``role`` status row under
    ``scope`` (the read-only probe)."""
    with reading(path) as log:
        return log is not None and bool(log.status(role, scope))


def collect(
    sources: "list[tuple[str, str]]",
    read: "Callable[[ProcessLog, str], list]" = ProcessLog.spans,
) -> list:
    """``read(log, scope)`` over each ``(path, scope)`` source, results
    concatenated in source order — by default every span tree as
    ``(role, slot, span dict)``.  Missing files contribute nothing;
    reads only."""
    found = []
    for path, scope in sources:
        with reading(path) as log:
            if log is not None:
                found.extend(read(log, scope))
    return found
