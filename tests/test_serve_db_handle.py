"""Tests of the one handle a serving process holds on its ``--db`` file.

A fleet replica opens exactly one SQLite connection to the file for its
whole life (spawn, serve, SIGTERM drain, final rows): its state store
opens the file as a campaign journal and the server journals through
it.  A standalone server given only ``db`` journals through a journal
of its own and keeps registrations in memory.  A file written before
the store rode the journal still serves its memoized reports and its
registrations, moved into the ``http-server`` row, and the in-memory
and durable token buckets share one refill rule.
"""

from __future__ import annotations

import http.client
import json
import socket
import sqlite3
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.campaign.journal import report_to_dict
from repro.processlog import FLEET_SCOPE, REPLICA, reading
from repro.processlog import SCHEMA as PROCESS_SCHEMA
from repro.serve import (
    AnnotationServer,
    AnnotationService,
    ServeConfig,
    ServeStateStore,
)
from repro.serve.ratelimit import TokenBucket
from repro.serve.sampling import HTTP_CAMPAIGN_ID, open_http_campaign

ROOT = Path(__file__).resolve().parents[1]


def _post(host, port, path, body):
    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        connection.request(
            "POST", path, body=json.dumps(body),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


# ----------------------------------------------------------------------
# One connection per replica
# ----------------------------------------------------------------------
# A replica run as a script, with sqlite3.connect counting every
# connection opened to the --db file; the count is the last stdout line.
_COUNTING_REPLICA_SCRIPT = """
import json, os, sqlite3, sys

spec = json.loads(sys.argv[1])
target = os.path.abspath(spec["serve_config"]["db"])
opened = []
connect = sqlite3.connect

def counting_connect(database, *args, **kwargs):
    if os.path.abspath(str(database)) == target:
        opened.append(database)
    return connect(database, *args, **kwargs)

sqlite3.connect = counting_connect
from repro.serve.fleet import serve_replica_main

code = serve_replica_main(spec)
print(json.dumps({"connections": len(opened)}))
sys.exit(code)
"""


def _reserved_port():
    """A bound (not listening) SO_REUSEPORT socket pinning a port the
    replica can bind too, as the fleet supervisor reserves one."""
    reservation = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    reservation.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    reservation.bind(("127.0.0.1", 0))
    return reservation


def _replica_phase(db):
    with reading(db) as log:
        if log is None:
            return None
        rows = log.status(REPLICA, FLEET_SCOPE, 0)
    return rows[0]["phase"] if rows else None


def test_replica_opens_its_db_once_from_spawn_to_final_rows(tmp_path):
    db = str(tmp_path / "fleet.db")
    store = ServeStateStore(db)
    try:
        module_id = "ret.get_uniprot_record"
        open_http_campaign(store.journal, 2014)
        store.journal.add_module(HTTP_CAMPAIGN_ID, module_id)
    finally:
        store.close()
    reservation = _reserved_port()
    try:
        config = ServeConfig(
            host="127.0.0.1", port=reservation.getsockname()[1], db=db,
            rate=10.0, sample_interval=0.05, reuse_port=True, replica=0,
        )
        spec = {
            "replica": 0,
            "attempt": 1,
            "serve_config": asdict(config),
            "service": {"seed": 2014},
            "heartbeat_interval": 0.1,
            "drain_timeout": 5.0,
        }
        process = subprocess.Popen(
            [sys.executable, "-c", _COUNTING_REPLICA_SCRIPT, json.dumps(spec)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src"),
                           "PATH": "/usr/bin:/bin:/usr/local/bin"},
        )
        try:
            deadline = time.time() + 60.0
            while _replica_phase(db) != "running":
                assert process.poll() is None, process.communicate()
                assert time.time() < deadline, "replica never reported running"
                time.sleep(0.05)
            # Work on every table the replica writes: a memoized report,
            # a durable tenant charge, spans, samples and heartbeats.
            for _ in range(2):
                status, body = _post(
                    "127.0.0.1", config.port, "/v1/generate",
                    {"module_id": module_id},
                )
                assert status == 200, body
            time.sleep(0.3)
            process.terminate()
            out, err = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
    finally:
        reservation.close()
    assert process.returncode == 0, err
    assert json.loads(out.splitlines()[-1]) == {"connections": 1}
    # The final rows landed on that one connection.
    store = ServeStateStore(db)
    try:
        assert store.replica_status(0)["phase"] == "drained"
        assert [event["kind"] for event in store.events()][-2:] == [
            "drain", "drained",
        ]
        assert store.journal.progress_counts(HTTP_CAMPAIGN_ID)["n_done"] == 1
        assert store.tenant_snapshot()["anonymous"]["allowed"] == 2
        assert store.spans(replica=0)
        assert store.journal.snapshots("http-server")
    finally:
        store.close()


# ----------------------------------------------------------------------
# Standalone servers stay non-durable
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def service():
    return AnnotationService(memoize=True)


def test_standalone_server_keeps_registrations_in_memory(service, tmp_path):
    db = str(tmp_path / "serve.sqlite")
    with AnnotationServer(service, ServeConfig(rate=None, db=db)) as server:
        assert server.state is None
        status, body = _post(
            server.host, server.port, "/v1/modules",
            {"module_id": "ret.get_uniprot_record"},
        )
        assert status in (200, 201), body
        assert "ret.get_uniprot_record" in service.modules()
        assert server.journal.meta("http-server").config == {
            "kind": "http-server"
        }
        assert server.journal.meta("http-server").module_ids == ()
    connection = sqlite3.connect(db)
    try:
        tables = {
            row[0]
            for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        rows = (
            connection.execute("SELECT COUNT(*) FROM serve_modules").fetchone()[0]
            if "serve_modules" in tables
            else 0
        )
    finally:
        connection.close()
    assert "campaigns" in tables
    assert rows == 0


# ----------------------------------------------------------------------
# A file written before the store rode the journal
# ----------------------------------------------------------------------
# The serve tables as a serving store created them before it opened its
# file as a campaign journal: the process tables plus these, and no
# campaign tables.
_OLDER_SERVE_SCHEMA = PROCESS_SCHEMA + """
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
"""


def test_older_db_still_serves_its_memoized_report(service, tmp_path):
    module_id = "ret.get_uniprot_record"
    module = next(m for m in service.catalog if m.module_id == module_id)
    report = service.generator.generate(module)
    row = json.dumps(report_to_dict(report), sort_keys=True)
    db = str(tmp_path / "older.db")
    connection = sqlite3.connect(db, isolation_level=None)
    try:
        connection.executescript(_OLDER_SERVE_SCHEMA)
        connection.execute(
            "INSERT INTO serve_modules VALUES (?, ?)", (module_id, 1.0)
        )
        connection.execute(
            "INSERT INTO serve_reports VALUES (?, ?, ?)", (module_id, row, 1.0)
        )
    finally:
        connection.close()
    store = ServeStateStore(db)
    try:
        fresh = AnnotationService(state=store)
        with AnnotationServer(fresh, ServeConfig(rate=None)) as server:
            status, body = _post(
                server.host, server.port, "/v1/generate",
                {"module_id": module_id},
            )
        assert status == 200, body
        assert body["cached"] is True
        assert body["report"] == json.loads(row)
        # The old registration set is served.
        assert fresh.modules() == [module_id]
        assert store.journal.meta(HTTP_CAMPAIGN_ID).module_ids == (module_id,)
        # Rewriting the row prints the same bytes.
        store.journal.record_done(
            HTTP_CAMPAIGN_ID, store.journal.entry(HTTP_CAMPAIGN_ID, module_id).report
        )
    finally:
        store.close()
    connection = sqlite3.connect(db)
    try:
        (stored,) = connection.execute(
            "SELECT report_json FROM campaign_entries "
            "WHERE campaign_id = ? AND module_id = ? AND status = 'done'",
            (HTTP_CAMPAIGN_ID, module_id),
        ).fetchone()
        tables = {
            name
            for (name,) in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
    finally:
        connection.close()
    assert stored == row
    # Both old tables were folded into the row and dropped.
    assert not tables & {"serve_modules", "serve_reports"}


def test_racing_replicas_fold_an_older_db_once(tmp_path):
    db = str(tmp_path / "older.db")
    connection = sqlite3.connect(db, isolation_level=None)
    try:
        connection.executescript(_OLDER_SERVE_SCHEMA)
        for module_id in ("xf.b", "xf.a"):
            connection.execute(
                "INSERT INTO serve_modules VALUES (?, ?)", (module_id, 1.0)
            )
            connection.execute(
                "INSERT INTO serve_reports VALUES (?, ?, ?)",
                (module_id, f'{{"row": "{module_id}"}}', 1.0),
            )
    finally:
        connection.close()
    stores = [ServeStateStore(db) for _ in range(3)]
    barrier = threading.Barrier(len(stores))
    errors = []

    def open_row(store):
        barrier.wait()
        try:
            open_http_campaign(store.journal, 2014)
        except Exception as error:
            errors.append(error)

    threads = [threading.Thread(target=open_row, args=(s,)) for s in stores]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    try:
        assert errors == []
        journal = stores[0].journal
        assert sorted(journal.meta(HTTP_CAMPAIGN_ID).module_ids) == ["xf.a", "xf.b"]
        rows = journal._connection.execute(
            "SELECT module_id, status, report_json FROM campaign_entries "
            "ORDER BY module_id"
        ).fetchall()
        assert rows == [
            ("xf.a", "done", '{"row": "xf.a"}'),
            ("xf.b", "done", '{"row": "xf.b"}'),
        ]
    finally:
        for store in stores:
            store.close()


# ----------------------------------------------------------------------
# One refill rule
# ----------------------------------------------------------------------
class ScriptedClock:
    def __init__(self, now=1_000.0):
        self.now = now

    def __call__(self):
        return self.now


def test_memory_and_durable_buckets_follow_one_refill_rule(tmp_path):
    clock = ScriptedClock()
    bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
    store = ServeStateStore(tmp_path / "buckets.db", wall_clock=clock)
    # Bursts, partial refills, a clock stepping backwards, a long idle
    # spell capped at the burst.
    steps = [0.0, 0.0, 0.0, 0.0, 0.2, 0.1, 0.3, 0.0, -5.0, 0.0, 0.6,
             0.0, 0.0, 40.0, 0.0, 0.0, 0.0, 0.0, 0.01]
    in_memory, durable = [], []
    try:
        for step in steps:
            clock.now += step
            in_memory.append(bucket.try_acquire())
            durable.append(store.charge_tenant("t", rate=2.0, burst=3.0))
        row = store.tenant_snapshot()["t"]
    finally:
        store.close()
    assert durable == in_memory
    assert {False, True} <= {allowed for allowed, _ in in_memory}
    assert (row["allowed"], row["limited"]) == (bucket.allowed, bucket.limited)
