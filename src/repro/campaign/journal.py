"""The campaign journal: write-ahead persistence of generation results.

A whole-catalog generation run (§3 over the 252-module catalog) is long
enough to die — the process gets killed, the machine reboots, a provider
blackout stalls everything past patience.  The journal makes the run
crash-safe at module granularity: every completed per-module
:class:`~repro.core.generation.GenerationReport` is committed to SQLite
*before* the campaign moves on, so a killed campaign loses at most the
module in flight and ``campaign resume`` completes the remainder.

The storage reuses the conventions of :mod:`repro.registry.sqlite_store`
(same wire serialization for typed values, same one-file SQLite shape);
journal tables can live in the same database file as a persisted
registry without clashing.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Mapping

from repro.core.examples import Binding, DataExample
from repro.core.generation import GenerationReport
from repro.core.quarantine import QuarantinedExample
from repro.modules.interfaces import value_from_wire, value_to_wire
from repro.obs.timeseries import slot_of
from repro.processlog import SCHEMA as _PROCESS_SCHEMA
from repro.processlog import SHARD_WORKER, SUPERVISOR, ProcessLog
from repro.values import TypedValue, value_wire_json

#: Journal lifecycle states of one campaign.
RUNNING = "running"
COMPLETE = "complete"
DEGRADED = "degraded"

#: Marks a shard worker's campaign id (see :func:`shard_campaign_id`).
_SHARD_MARK = "::shard-"

_SCHEMA = _PROCESS_SCHEMA + """
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id TEXT PRIMARY KEY,
    seed INTEGER NOT NULL,
    status TEXT NOT NULL CHECK (status IN ('running', 'complete', 'degraded')),
    module_ids_json TEXT NOT NULL,
    config_json TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaign_entries (
    campaign_id TEXT NOT NULL REFERENCES campaigns(campaign_id),
    module_id TEXT NOT NULL,
    status TEXT NOT NULL CHECK (status IN ('done', 'skipped')),
    detail TEXT NOT NULL,
    report_json TEXT NOT NULL,
    PRIMARY KEY (campaign_id, module_id)
);
CREATE TABLE IF NOT EXISTS campaign_snapshots (
    snap_seq INTEGER PRIMARY KEY AUTOINCREMENT,
    campaign_id TEXT NOT NULL,
    t_ms REAL NOT NULL,
    snapshot_json TEXT NOT NULL,
    slot INTEGER,
    run INTEGER
);
CREATE INDEX IF NOT EXISTS campaign_snapshots_by_campaign
    ON campaign_snapshots (campaign_id);
CREATE TABLE IF NOT EXISTS campaign_alerts (
    alert_seq INTEGER PRIMARY KEY AUTOINCREMENT,
    campaign_id TEXT NOT NULL,
    slo TEXT NOT NULL,
    kind TEXT NOT NULL,
    subject TEXT NOT NULL,
    state TEXT NOT NULL CHECK (state IN ('firing', 'resolved')),
    t_ms REAL NOT NULL,
    detail TEXT NOT NULL,
    slot INTEGER
);
CREATE INDEX IF NOT EXISTS campaign_alerts_by_campaign
    ON campaign_alerts (campaign_id);
CREATE TABLE IF NOT EXISTS match_signatures (
    campaign_id TEXT NOT NULL,
    module_id TEXT NOT NULL,
    signature_json TEXT NOT NULL,
    PRIMARY KEY (campaign_id, module_id)
);
"""


def open_wal(
    path: str, schema: str, busy_timeout: float = 10.0
) -> sqlite3.Connection:
    """Open a SQLite file several processes write and apply ``schema``
    (the one opener of journals, and through them of the serving
    store).  Callers serialize access across threads."""
    connection = sqlite3.connect(
        path, timeout=busy_timeout, check_same_thread=False
    )
    with connection:
        connection.execute(f"PRAGMA busy_timeout = {int(busy_timeout * 1000)}")
        # WAL survives in the database file; synchronous=NORMAL is the
        # WAL-recommended durability level — commits survive a process
        # kill (the case journals defend against), and only an OS crash
        # can lose the tail of the log.
        connection.execute("PRAGMA journal_mode = WAL")
        connection.execute("PRAGMA synchronous = NORMAL")
        connection.executescript(schema)
    return connection


def _add_columns(connection: sqlite3.Connection, table: str, names) -> None:
    """Add the nullable INTEGER columns ``names`` that ``table`` lacks
    (a journal from before they existed)."""
    columns = {row[1] for row in connection.execute(f"PRAGMA table_info({table})")}
    for name in names:
        if name in columns:
            continue
        try:
            with connection:
                connection.execute(f"ALTER TABLE {table} ADD COLUMN {name} INTEGER")
        except sqlite3.OperationalError as error:  # a racing opener won
            if "duplicate column" not in str(error):
                raise


def _snapshot_keys(snapshot: dict) -> "tuple[int | None, int]":
    """A sample's process slot and run, as the timeline readers read
    them: :func:`~repro.obs.timeseries.slot_of`, and run 0 when the
    sample carries none."""
    return slot_of(snapshot), snapshot.get("run", 0)


def _migrate(connection: sqlite3.Connection) -> None:
    """Bring an older journal to this schema: alert events gain
    ``slot`` (NULL on every old event), and samples gain their
    ``slot`` and ``run`` columns, filled from the samples themselves
    wherever a row lacks them (journaled by an older build), so every
    row is found by the ``campaign_snapshots_by_run`` index."""
    _add_columns(connection, "campaign_alerts", ("slot",))
    _add_columns(connection, "campaign_snapshots", ("slot", "run"))
    rows = connection.execute(
        "SELECT snap_seq, snapshot_json FROM campaign_snapshots WHERE run IS NULL"
    ).fetchall()
    with connection:
        connection.executemany(
            "UPDATE campaign_snapshots SET slot = ?, run = ? WHERE snap_seq = ?",
            [(*_snapshot_keys(json.loads(body)), seq) for seq, body in rows],
        )
        connection.execute(
            "CREATE INDEX IF NOT EXISTS campaign_snapshots_by_run "
            "ON campaign_snapshots (campaign_id, slot, run)"
        )


#: Per-status entry counts of one campaign.
_PROGRESS_QUERY = (
    "SELECT status, COUNT(*) FROM campaign_entries "
    "WHERE campaign_id = ? GROUP BY status"
)


def _progress(rows: "list[tuple[str, int]]") -> "dict[str, int]":
    counts = dict(rows)
    return {
        "n_done": counts.get("done", 0),
        "n_skipped": counts.get("skipped", 0),
    }


def read_progress_counts(
    path: "str | os.PathLike", campaign_id: str
) -> "dict[str, int]":
    """:meth:`CampaignJournal.progress_counts` of the journal at
    ``path``, read without writing: zero counts when the file is
    missing, is not SQLite, or lacks the journal schema (a worker killed
    before its schema committed).  Never creates a file or a table."""
    rows: "list[tuple[str, int]]" = []
    if os.path.exists(str(path)):
        connection = sqlite3.connect(str(path))
        try:
            rows = connection.execute(_PROGRESS_QUERY, (campaign_id,)).fetchall()
        except sqlite3.DatabaseError:
            pass  # no journal schema yet, or not a SQLite file
        finally:
            connection.close()
    return _progress(rows)


def shard_campaign_id(campaign_id: str, shard: int) -> str:
    """The campaign id a worker runs its shard under (in its own
    journal), namespaced so shard rows can never collide with the main
    campaign even if both tables land in one file."""
    return f"{campaign_id}{_SHARD_MARK}{shard:02d}"


# ----------------------------------------------------------------------
# GenerationReport <-> JSON
# ----------------------------------------------------------------------
def _binding_to_dict(binding: Binding) -> dict:
    return {
        "parameter": binding.parameter,
        "partition": binding.partition,
        "value": value_to_wire(binding.value),
    }


def _binding_from_dict(data: dict) -> Binding:
    return Binding(
        parameter=data["parameter"],
        value=value_from_wire(data["value"]),
        partition=data["partition"],
    )


def report_to_dict(report: GenerationReport) -> dict:
    """Serialize a generation report to a JSON-compatible dict.

    The full report round-trips — examples, per-partition selections,
    unrealized partitions and both failure counters — so a resumed
    campaign reassembles results indistinguishable from a fresh run.
    """
    return {
        "module_id": report.module_id,
        "examples": [
            {
                "inputs": [_binding_to_dict(b) for b in example.inputs],
                "outputs": [_binding_to_dict(b) for b in example.outputs],
            }
            for example in report.examples
        ],
        "selected": [
            [
                parameter,
                [[partition, value_to_wire(value)] for partition, value in chosen.items()],
            ]
            for parameter, chosen in report.selected.items()
        ],
        "unrealized_partitions": [list(pair) for pair in report.unrealized_partitions],
        "invalid_combinations": report.invalid_combinations,
        "unavailable_combinations": report.unavailable_combinations,
        "quarantined": [
            {
                "inputs": [_binding_to_dict(b) for b in record.inputs],
                "outputs": [_binding_to_dict(b) for b in record.outputs],
                "cause": record.cause,
                "detail": record.detail,
            }
            for record in report.quarantined
        ],
    }


def _text_json(text: "str | None") -> str:
    return "null" if text is None else _quote(text)


def _bindings_json(bindings) -> str:
    return (
        "["
        + ", ".join(
            [
                f'{{"parameter": {_quote(binding.parameter)}, "partition": '
                f"{_text_json(binding.partition)}, "
                f'"value": {value_wire_json(binding.value)}}}'
                for binding in bindings
            ]
        )
        + "]"
    )


def report_json(report: GenerationReport) -> str:
    """The journal row of a generation report:
    ``json.dumps(report_to_dict(report), sort_keys=True)``, printed
    directly from the report's fields (keys in sorted order, every typed
    value through :func:`repro.values.canonical.value_wire_json`) without
    building the intermediate dict."""
    examples = ", ".join(
        [
            f'{{"inputs": {_bindings_json(example.inputs)}, '
            f'"outputs": {_bindings_json(example.outputs)}}}'
            for example in report.examples
        ]
    )
    selected = ", ".join(
        [
            f"[{_quote(parameter)}, ["
            + ", ".join(
                [
                    f"[{_quote(partition)}, {value_wire_json(value)}]"
                    for partition, value in chosen.items()
                ]
            )
            + "]]"
            for parameter, chosen in report.selected.items()
        ]
    )
    unrealized = ", ".join(
        [
            "[" + ", ".join(map(_quote, pair)) + "]"
            for pair in report.unrealized_partitions
        ]
    )
    quarantined = ", ".join(
        [
            f'{{"cause": {_quote(record.cause)}, "detail": {_quote(record.detail)}, '
            f'"inputs": {_bindings_json(record.inputs)}, '
            f'"outputs": {_bindings_json(record.outputs)}}}'
            for record in report.quarantined
        ]
    )
    return (
        f'{{"examples": [{examples}], '
        f'"invalid_combinations": {json.dumps(report.invalid_combinations)}, '
        f'"module_id": {_quote(report.module_id)}, '
        f'"quarantined": [{quarantined}], '
        f'"selected": [{selected}], '
        f'"unavailable_combinations": {json.dumps(report.unavailable_combinations)}, '
        f'"unrealized_partitions": [{unrealized}]}}'
    )


def report_from_dict(data: dict) -> GenerationReport:
    """Rebuild a generation report from its journaled form."""
    module_id = data["module_id"]
    selected: dict[str, dict[str, TypedValue]] = {
        parameter: {
            partition: value_from_wire(wire) for partition, wire in chosen
        }
        for parameter, chosen in data["selected"]
    }
    return GenerationReport(
        module_id=module_id,
        examples=[
            DataExample(
                module_id=module_id,
                inputs=tuple(_binding_from_dict(b) for b in example["inputs"]),
                outputs=tuple(_binding_from_dict(b) for b in example["outputs"]),
            )
            for example in data["examples"]
        ],
        selected=selected,
        unrealized_partitions=[
            tuple(pair) for pair in data["unrealized_partitions"]
        ],
        invalid_combinations=data["invalid_combinations"],
        unavailable_combinations=data["unavailable_combinations"],
        # PR-2-era journals predate quarantine; default to none.
        quarantined=[
            QuarantinedExample(
                module_id=module_id,
                inputs=tuple(_binding_from_dict(b) for b in record["inputs"]),
                outputs=tuple(_binding_from_dict(b) for b in record["outputs"]),
                cause=record["cause"],
                detail=record["detail"],
            )
            for record in data.get("quarantined", [])
        ],
    )


# ----------------------------------------------------------------------
# Journal records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JournalEntry:
    """One journaled per-module outcome."""

    module_id: str
    status: str  # 'done' | 'skipped'
    detail: str = ""
    report: "GenerationReport | None" = None


@dataclass(frozen=True)
class CampaignMeta:
    """The campaigns-table row of one campaign."""

    campaign_id: str
    seed: int
    status: str
    module_ids: tuple[str, ...]
    config: dict = field(default_factory=dict)


class UnknownCampaignError(KeyError):
    """The journal holds no campaign under the requested id."""


class CampaignJournal:
    """SQLite-backed write-ahead journal of campaign progress.

    One connection is shared across threads (the batch scheduler journals
    from workers) behind a lock; every record is its own committed
    transaction, so a SIGKILL at any point leaves a consistent journal.

    The journal also carries the process tables of the campaign's
    workers (:mod:`repro.processlog`), written through
    :attr:`processes`.

    The database is opened in **WAL mode with an explicit busy timeout**:
    sharded campaigns have one writer per shard journal plus concurrent
    readers (the supervisor's heartbeat poll, ``repro-cli top`` in
    another process, the merge step).  WAL lets readers proceed while a
    writer commits, and the busy timeout makes the rare writer-vs-writer
    collision wait instead of surfacing a spurious ``database is
    locked`` error.

    Args:
        path: The SQLite file.
        busy_timeout: Seconds a blocked statement waits for a lock
            before erroring (applied both as the connect timeout and as
            ``PRAGMA busy_timeout``).
    """

    def __init__(self, path: "str | Path", busy_timeout: float = 10.0) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._connection = open_wal(self.path, _SCHEMA, busy_timeout)
        _migrate(self._connection)
        #: Status rows, lifecycle events and spans of the processes.
        self.processes = ProcessLog(self._connection, self._lock)

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    # ------------------------------------------------------------------
    # Campaigns
    # ------------------------------------------------------------------
    def create(
        self,
        campaign_id: str,
        seed: int,
        module_ids: "list[str]",
        config: "dict | None" = None,
    ) -> None:
        """Open a new campaign in ``running`` state.

        Raises:
            ValueError: If the campaign id is already journaled.
        """
        with self._lock, self._connection:
            try:
                self._connection.execute(
                    "INSERT INTO campaigns VALUES (?, ?, ?, ?, ?)",
                    (
                        campaign_id,
                        seed,
                        RUNNING,
                        json.dumps(list(module_ids)),
                        json.dumps(config or {}, sort_keys=True),
                    ),
                )
            except sqlite3.IntegrityError:
                raise ValueError(
                    f"campaign {campaign_id!r} already exists in {self.path}"
                ) from None

    def meta(self, campaign_id: str) -> CampaignMeta:
        """The campaign's row.

        Raises:
            UnknownCampaignError: No such campaign in this journal.
        """
        with self._lock:
            row = self._connection.execute(
                "SELECT campaign_id, seed, status, module_ids_json, config_json "
                "FROM campaigns WHERE campaign_id = ?",
                (campaign_id,),
            ).fetchone()
        if row is None:
            raise UnknownCampaignError(campaign_id)
        return CampaignMeta(
            campaign_id=row[0],
            seed=row[1],
            status=row[2],
            module_ids=tuple(json.loads(row[3])),
            config=json.loads(row[4]),
        )

    def campaigns(self) -> "list[CampaignMeta]":
        """All journaled campaigns, id-ordered."""
        with self._lock:
            ids = [
                row[0]
                for row in self._connection.execute(
                    "SELECT campaign_id FROM campaigns ORDER BY campaign_id"
                ).fetchall()
            ]
        return [self.meta(campaign_id) for campaign_id in ids]

    def set_status(self, campaign_id: str, status: str) -> None:
        """Move a campaign to ``running`` / ``complete`` / ``degraded``."""
        if status not in (RUNNING, COMPLETE, DEGRADED):
            raise ValueError(f"unknown campaign status {status!r}")
        with self._lock, self._connection:
            updated = self._connection.execute(
                "UPDATE campaigns SET status = ? WHERE campaign_id = ?",
                (status, campaign_id),
            ).rowcount
        if not updated:
            raise UnknownCampaignError(campaign_id)

    def add_module(self, campaign_id: str, module_id: str) -> bool:
        """Append ``module_id`` to a campaign's planned modules unless it
        is there: one ``UPDATE``, so of any number of processes adding
        the same id exactly one sees ``True``.  Raises
        :class:`UnknownCampaignError` for an unknown campaign."""
        with self._lock, self._connection:
            added = self._connection.execute(
                "UPDATE campaigns "
                "SET module_ids_json = json_insert(module_ids_json, '$[#]', ?) "
                "WHERE campaign_id = ? AND NOT EXISTS (SELECT 1 FROM "
                "json_each(campaigns.module_ids_json) WHERE value = ?)",
                (module_id, campaign_id, module_id),
            ).rowcount
        if not added:
            self.meta(campaign_id)  # raises for an unknown campaign
        return bool(added)

    # ------------------------------------------------------------------
    # Entries
    # ------------------------------------------------------------------
    def record_done(self, campaign_id: str, report: GenerationReport) -> None:
        """Commit one completed module (replacing any earlier skip)."""
        payload = report_json(report)
        with self._lock, self._connection:
            self._connection.execute(
                "INSERT OR REPLACE INTO campaign_entries VALUES (?, ?, ?, ?, ?)",
                (campaign_id, report.module_id, "done", "", payload),
            )

    def record_skipped(self, campaign_id: str, module_id: str, reason: str) -> None:
        """Journal a module the campaign gave up on (resumable later)."""
        with self._lock, self._connection:
            self._connection.execute(
                "INSERT OR REPLACE INTO campaign_entries VALUES (?, ?, ?, ?, ?)",
                (campaign_id, module_id, "skipped", reason, "{}"),
            )

    def copy_entries(
        self, campaign_id: str, source_path: "str | Path", source_campaign_id: str
    ) -> int:
        """Copy every entry row of ``source_campaign_id`` in the journal
        file ``source_path`` under ``campaign_id`` here, byte for byte.

        One committed transaction of ``(campaign_id, module_id)`` upserts
        (the key :meth:`record_done` writes), so copying the same rows
        twice lands on the same table.  A source without such rows — or
        killed before its schema was committed — copies nothing.

        Returns:
            Rows copied.
        """
        with self._lock:
            self._connection.execute(
                "ATTACH DATABASE ? AS source", (str(source_path),)
            )
            try:
                with self._connection:
                    if self._connection.execute(
                        "SELECT 1 FROM source.sqlite_master "
                        "WHERE type = 'table' AND name = 'campaign_entries'"
                    ).fetchone() is None:
                        return 0
                    return self._connection.execute(
                        "INSERT OR REPLACE INTO main.campaign_entries "
                        "SELECT ?, module_id, status, detail, report_json "
                        "FROM source.campaign_entries WHERE campaign_id = ?",
                        (campaign_id, source_campaign_id),
                    ).rowcount
            finally:
                self._connection.execute("DETACH DATABASE source")

    # ------------------------------------------------------------------
    # Process rows: spans (the campaign flight recorder) and the worker
    # lifecycle of sharded multi-process campaigns
    # ------------------------------------------------------------------
    def record_span(self, campaign_id: str, span: dict) -> None:
        """Commit one completed invocation span tree.

        Each span is its own committed transaction — exactly like report
        entries — so a SIGKILLed campaign keeps every trace that finished
        before the kill.  Spans are *observations*, not results: they
        live in their own table and never feed report reassembly, so the
        kill/resume byte-identity guarantee is untouched.  A span
        journaled under a shard campaign id is that shard worker's; any
        other is the supervisor's.
        """
        head, _, shard = campaign_id.rpartition(_SHARD_MARK)
        if head and shard.isdigit():
            self.processes.record_span(SHARD_WORKER, campaign_id, int(shard), span)
        else:
            self.processes.record_span(SUPERVISOR, campaign_id, None, span)

    def worker_events(self, campaign_id: str) -> "list[dict]":
        """The worker lifecycle timeline of one campaign, recording order."""
        return self.processes.events(SHARD_WORKER, campaign_id)

    # ------------------------------------------------------------------
    # Snapshots (the longitudinal time-series, PR 5)
    # ------------------------------------------------------------------
    def record_snapshot(self, campaign_id: str, t_ms: float, snapshot: dict) -> None:
        """Commit one time-series sample.

        Exactly the span discipline: each snapshot is its own committed
        transaction, so a SIGKILLed campaign keeps every sample taken
        before the kill and the time line reconstructs from the journal
        file alone.  Snapshots are observations — they never feed report
        reassembly, so sampling cannot perturb kill/resume byte-identity.
        """
        payload = json.dumps(snapshot, sort_keys=True)
        with self._lock, self._connection:
            self._connection.execute(
                "INSERT INTO campaign_snapshots "
                "(campaign_id, t_ms, snapshot_json, slot, run) VALUES (?, ?, ?, ?, ?)",
                (campaign_id, t_ms, payload, *_snapshot_keys(snapshot)),
            )

    def snapshots(self, campaign_id: str) -> "list[dict]":
        """The journaled time-series of one campaign, recording order.

        Each dict is one sample as the sampler committed it; a resumed
        campaign appends to the same time line (its samples carry a
        fresh ``run`` stamp, so per-process segments stay separable).
        """
        with self._lock:
            rows = self._connection.execute(
                "SELECT snapshot_json FROM campaign_snapshots "
                "WHERE campaign_id = ? ORDER BY snap_seq",
                (campaign_id,),
            ).fetchall()
        return [json.loads(row[0]) for row in rows]

    def last_run(self, campaign_id: str, slot: "int | None" = None) -> "int | None":
        """The highest ``run`` one process slot journaled for a campaign,
        or ``None`` when it journaled no sample: one search of the
        ``campaign_snapshots_by_run`` index, no sample decoded."""
        with self._lock:
            row = self._connection.execute(
                "SELECT MAX(run) FROM campaign_snapshots "
                "WHERE campaign_id = ? AND slot IS ?",
                (campaign_id, slot),
            ).fetchone()
        return row[0]

    # ------------------------------------------------------------------
    # Alerts (the SLO / drift alert history, PR 5)
    # ------------------------------------------------------------------
    def record_alert(self, campaign_id: str, event: dict) -> None:
        """Commit one alert lifecycle event (``firing`` or ``resolved``).

        The journal keeps the full event *history*; current alert state
        is a fold over it (:func:`repro.obs.slo.alert_states`), so a
        killed campaign's alerts reconstruct from the file alone.  A
        fleet replica's event carries its ``slot``.
        """
        with self._lock, self._connection:
            self._connection.execute(
                "INSERT INTO campaign_alerts "
                "(campaign_id, slo, kind, subject, state, t_ms, detail, slot) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    campaign_id,
                    event.get("slo", ""),
                    event.get("kind", ""),
                    event.get("subject", ""),
                    event.get("state", "firing"),
                    event.get("t_ms", 0.0),
                    event.get("detail", ""),
                    event.get("slot"),
                ),
            )

    def alerts(self, campaign_id: str) -> "list[dict]":
        """The alert event history of one campaign, recording order."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT slo, kind, subject, state, t_ms, detail, slot "
                "FROM campaign_alerts WHERE campaign_id = ? ORDER BY alert_seq",
                (campaign_id,),
            ).fetchall()
        # Only ``slot`` is nullable: campaign events carry no slot key.
        keys = ("slo", "kind", "subject", "state", "t_ms", "detail", "slot")
        return [
            {key: value for key, value in zip(keys, row) if value is not None}
            for row in rows
        ]

    # ------------------------------------------------------------------
    # Match signatures (the signature-index build campaign, PR 9)
    # ------------------------------------------------------------------
    def record_signature(
        self, campaign_id: str, module_id: str, record: dict
    ) -> None:
        """Commit one module's computed behavior signature.

        Exactly the report-entry discipline: each signature is its own
        committed transaction *before* the index build moves on, so a
        killed ``repro-cli match index`` run resumes by re-loading the
        journaled signatures and sketching only the remainder.  Re-adds
        replace (last write wins) — re-sketching a module is idempotent.
        """
        payload = json.dumps(record, sort_keys=True)
        with self._lock, self._connection:
            self._connection.execute(
                "INSERT OR REPLACE INTO match_signatures VALUES (?, ?, ?)",
                (campaign_id, module_id, payload),
            )

    def signatures(self, campaign_id: str) -> "dict[str, dict]":
        """All journaled signature records of one campaign, by module id."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT module_id, signature_json FROM match_signatures "
                "WHERE campaign_id = ?",
                (campaign_id,),
            ).fetchall()
        return {module_id: json.loads(payload) for module_id, payload in rows}

    # ------------------------------------------------------------------
    def progress_counts(self, campaign_id: str) -> "dict[str, int]":
        """Cheap per-status entry counts (no report deserialization).

        The sampler calls this once per campaign round; parsing every
        journaled report JSON there would make sampling O(results), not
        O(1) queries.
        """
        with self._lock:
            rows = self._connection.execute(
                _PROGRESS_QUERY, (campaign_id,)
            ).fetchall()
        return _progress(rows)

    def _status_rows(self, campaign_id: str) -> "list[tuple[str, str, str]]":
        return self._connection.execute(
            "SELECT module_id, status, detail "
            "FROM campaign_entries WHERE campaign_id = ?",
            (campaign_id,),
        ).fetchall()

    def statuses(self, campaign_id: str) -> "dict[str, JournalEntry]":
        """Every journaled entry's status and skip detail, keyed by
        module id, without reading any report (``report`` is ``None``)."""
        with self._lock:
            rows = self._status_rows(campaign_id)
        return {
            module_id: JournalEntry(module_id=module_id, status=status, detail=detail)
            for module_id, status, detail in rows
        }

    def entry(self, campaign_id: str, module_id: str) -> "JournalEntry | None":
        """One module's entry, its report parsed when done, or ``None``:
        one row read, where :meth:`entries` parses every row."""
        with self._lock:
            row = self._connection.execute(
                "SELECT status, detail, report_json FROM campaign_entries "
                "WHERE campaign_id = ? AND module_id = ?",
                (campaign_id, module_id),
            ).fetchone()
        if row is None:
            return None
        status, detail, payload = row
        report = report_from_dict(json.loads(payload)) if status == "done" else None
        return JournalEntry(module_id, status, detail, report)

    def entries(
        self,
        campaign_id: str,
        held: "Mapping[str, GenerationReport] | None" = None,
    ) -> "dict[str, JournalEntry]":
        """All journaled entries of one campaign, keyed by module id.

        Args:
            campaign_id: The campaign.
            held: Reports this process committed under ``campaign_id``
                with :meth:`record_done`, by module id.  The journal
                still decides every module's status; a done module whose
                report is held takes that object, and only the other
                done rows' report JSON is read and parsed.
        """
        held = held or {}
        with self._lock, self._connection:
            # One read transaction: both reads see the same snapshot.
            self._connection.execute("BEGIN")
            rows = self._status_rows(campaign_id)
            payloads = {}
            if any(
                status == "done" and module_id not in held
                for module_id, status, _ in rows
            ):
                payloads = dict(
                    self._connection.execute(
                        "SELECT module_id, report_json FROM campaign_entries "
                        "WHERE campaign_id = ? AND status = 'done'",
                        (campaign_id,),
                    ).fetchall()
                )
        entries: dict[str, JournalEntry] = {}
        for module_id, status, detail in rows:
            report = None
            if status == "done":
                report = held.get(module_id)
                if report is None:
                    report = report_from_dict(json.loads(payloads[module_id]))
            entries[module_id] = JournalEntry(
                module_id=module_id, status=status, detail=detail, report=report
            )
        return entries


# ----------------------------------------------------------------------
# Read-only progress rollup (CLI `campaign status`, HTTP campaign API).
# ----------------------------------------------------------------------
def campaign_progress(journal: CampaignJournal, meta: CampaignMeta) -> dict:
    """One campaign's JSON-compatible progress rollup.

    Everything is derived from the journal alone, so any read-only
    consumer — ``repro-cli campaign status``, the serving layer's
    ``GET /v1/campaigns/{id}`` — can report on a campaign running in a
    different process (or post-mortem a killed one) without sharing any
    state beyond the SQLite file.
    """
    entries = journal.entries(meta.campaign_id)
    done = [e for e in entries.values() if e.status == "done"]
    skipped = {
        e.module_id: e.detail for e in entries.values() if e.status == "skipped"
    }
    return {
        "campaign_id": meta.campaign_id,
        "seed": meta.seed,
        "status": meta.status,
        "n_planned": len(meta.module_ids),
        "n_done": len(done),
        "n_skipped": len(skipped),
        "n_pending": len(meta.module_ids) - len(done) - len(skipped),
        "n_examples": sum(entry.report.n_examples for entry in done),
        "timed_out_combinations": sum(
            entry.report.timed_out_combinations for entry in done
        ),
        "quarantined_combinations": sum(
            entry.report.quarantined_combinations for entry in done
        ),
        "skipped": skipped,
    }
