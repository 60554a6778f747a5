"""Tests of the serving fleet: SO_REUSEPORT replicas behind one port,
shared memoization through the state store, crash restart and chaos-kill
convergence, graceful whole-fleet drain, rolling restarts, and the
full-fleet-restart durability acceptance (tenant accounting and memoized
reports resume byte-identically from the journal)."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign.journal import campaign_progress
from repro.modules.catalog import default_catalog
from repro.serve import FleetConfig, ServeConfig, ServeSupervisor
from repro.serve.sampling import HTTP_CAMPAIGN_ID

FAST = dict(heartbeat_interval=0.2, restart_backoff=0.05, drain_timeout=5.0)


def _fetch(host, port, method="GET", path="/healthz", body=None,
           headers=None, timeout=15.0):
    """One request on a fresh connection; (status, parsed body)."""
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


def _generate(host, port, module_id, tenant=None):
    headers = {"Content-Type": "application/json"}
    if tenant is not None:
        headers["X-Api-Key"] = tenant
    return _fetch(
        host, port, "POST", "/v1/generate",
        body=json.dumps({"module_id": module_id}), headers=headers,
    )


def _wait(supervisor, predicate, timeout=45.0, message="condition"):
    deadline = time.time() + timeout
    while time.time() < deadline:
        supervisor.poll()
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"{message} not reached within {timeout}s")


def _supervisor(db, replicas=2, rate=None, burst=100.0, **fleet_kwargs):
    config = ServeConfig(
        host="127.0.0.1", port=0, db=str(db), rate=rate, burst=burst,
    )
    fleet = FleetConfig(replicas=replicas, **{**FAST, **fleet_kwargs})
    return ServeSupervisor(
        config, fleet, service={"seed": 2014}, register_all=True
    )


def _first_module(supervisor):
    """The sorted-first registered module id."""
    return min(supervisor.store.journal.meta(HTTP_CAMPAIGN_ID).module_ids)


def _served(supervisor):
    """Memoized reports in the shared store."""
    return supervisor.store.journal.progress_counts(HTTP_CAMPAIGN_ID)["n_done"]


def _event_kinds(supervisor):
    return [event["kind"] for event in supervisor.store.events()]


class TestSupervisorValidation:
    def test_state_db_is_required(self):
        with pytest.raises(ValueError, match="needs db"):
            ServeSupervisor(ServeConfig(port=0))

    def test_log_stream_cannot_cross_the_spawn_boundary(self, tmp_path):
        config = ServeConfig(
            port=0, db=str(tmp_path / "s.db"), log_stream=sys.stderr
        )
        with pytest.raises(ValueError, match="log_stream"):
            ServeSupervisor(config)


class TestFleetServes:
    def test_replicas_share_one_port_and_one_report_store(self, tmp_path):
        supervisor = _supervisor(tmp_path / "fleet.db", replicas=2).start()
        try:
            _wait(
                supervisor, lambda: supervisor.healthy_replicas() == 2,
                message="2 healthy replicas",
            )
            assert len(supervisor.pids) == 2
            module_id = _first_module(supervisor)
            first = _generate(supervisor.host, supervisor.port, module_id)
            assert first[0] == 200
            # Every later answer is memoized no matter which replica the
            # kernel picks: the report lives in the shared store, not in
            # the replica that generated it.
            for _ in range(6):
                status, body = _generate(
                    supervisor.host, supervisor.port, module_id
                )
                assert status == 200
                assert body["cached"] is True
            assert _served(supervisor) == 1
        finally:
            assert supervisor.drain() is True
            supervisor.close()

    def test_drained_fleet_journals_its_exit(self, tmp_path):
        supervisor = _supervisor(tmp_path / "fleet.db", replicas=2).start()
        _wait(
            supervisor, lambda: supervisor.healthy_replicas() == 2,
            message="2 healthy replicas",
        )
        assert supervisor.drain() is True
        rows = supervisor.store.replica_rows()
        assert [row["phase"] for row in rows] == ["drained", "drained"]
        kinds = _event_kinds(supervisor)
        assert kinds.count("drained") == 2
        assert kinds[-1] == "fleet-stop"
        supervisor.close()


# A replica process that SIGTERMs itself while it is still starting up:
# inside the first ServeStateStore construction, before it has reported
# `running`.  Run as a script so the signal reaches a real main thread.
_STARTUP_SIGTERM_SCRIPT = """
import json, os, signal, sys
import repro.serve.fleet as fleet

class SignalledDuringStartup(fleet.ServeStateStore):
    sent = False

    def __init__(self, *args, **kwargs):
        if not SignalledDuringStartup.sent:
            SignalledDuringStartup.sent = True
            os.kill(os.getpid(), signal.SIGTERM)
        super().__init__(*args, **kwargs)

fleet.ServeStateStore = SignalledDuringStartup
sys.exit(fleet.serve_replica_main(json.loads(sys.argv[1])))
"""


class TestStartupSignals:
    def test_sigterm_during_startup_drains_the_replica(self, tmp_path):
        from dataclasses import asdict

        from repro.serve.state import ServeStateStore

        db = tmp_path / "fleet.db"
        config = ServeConfig(
            host="127.0.0.1", port=0, db=str(db), reuse_port=True,
            replica=0,
        )
        spec = {
            "replica": 0,
            "attempt": 1,
            "serve_config": asdict(config),
            "service": {"seed": 2014},
            "heartbeat_interval": 0.2,
            "drain_timeout": 5.0,
        }
        root = Path(__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, "-c", _STARTUP_SIGTERM_SCRIPT, json.dumps(spec)],
            capture_output=True, text=True, cwd=root, env=_cli_env(root),
            timeout=60,
        )
        assert run.returncode == 0, run.stderr
        store = ServeStateStore(str(db))
        try:
            kinds = [event["kind"] for event in store.events()]
            assert "drain" in kinds
            assert kinds[-1] == "drained"
            assert store.replica_status(0)["phase"] == "drained"
        finally:
            store.close()


class TestCrashRecovery:
    def test_sigkilled_replica_is_respawned(self, tmp_path):
        supervisor = _supervisor(tmp_path / "fleet.db", replicas=2).start()
        try:
            _wait(
                supervisor, lambda: supervisor.healthy_replicas() == 2,
                message="2 healthy replicas",
            )
            victim = supervisor.pids[0]
            os.kill(victim, signal.SIGKILL)
            _wait(
                supervisor,
                lambda: supervisor.healthy_replicas() == 2
                and supervisor.pids.get(0) not in (None, victim),
                message="fleet reconverged after SIGKILL",
            )
            status, _ = _fetch(supervisor.host, supervisor.port)
            assert status == 200
            kinds = _event_kinds(supervisor)
            assert "crash" in kinds
            assert "restart-scheduled" in kinds
            assert "restart" in kinds
        finally:
            supervisor.drain()
            supervisor.close()

    def test_restart_budget_exhaustion_degrades_the_replica(self, tmp_path):
        # Chaos kills the replica's only process at its first request
        # and the budget allows no restart: the replica must be left
        # degraded, not respawned forever.
        supervisor = _supervisor(
            tmp_path / "fleet.db", replicas=1,
            max_restarts=0, chaos_kill_replica=1,
        ).start()
        try:
            _wait(
                supervisor, lambda: supervisor.healthy_replicas() == 1,
                message="replica healthy",
            )
            with pytest.raises((OSError, http.client.HTTPException)):
                _fetch(supervisor.host, supervisor.port, path="/v1/modules")
            _wait(
                supervisor, lambda: "degraded" in _event_kinds(supervisor),
                message="replica degraded",
            )
            assert supervisor.healthy_replicas() == 0
        finally:
            supervisor.drain()
            supervisor.close()


class TestServeChaos:
    def test_chaos_kill_costs_only_the_in_flight_request(self, tmp_path):
        # The replica's first process dies mid-request at request 3; the
        # client on that request sees a dropped connection and nothing
        # else is lost — the restarted process (never re-armed) serves
        # on, and the memoized answer survived in the store.
        supervisor = _supervisor(
            tmp_path / "fleet.db", replicas=1, chaos_kill_replica=3,
        ).start()
        try:
            _wait(
                supervisor, lambda: supervisor.healthy_replicas() == 1,
                message="replica healthy",
            )
            module_id = _first_module(supervisor)
            assert _generate(supervisor.host, supervisor.port, module_id)[0] == 200
            assert _fetch(
                supervisor.host, supervisor.port, path="/v1/modules"
            )[0] == 200
            with pytest.raises((OSError, http.client.HTTPException)):
                # The 3rd governed request is the armed one.
                _fetch(supervisor.host, supervisor.port, path="/v1/modules")
            # Wait for the *replacement* specifically (attempt >= 2): the
            # client observes the chaos kill a beat before the supervisor
            # does, so right after the dropped connection the corpse's
            # journaled heartbeat is still fresh and plain
            # ``healthy_replicas() == 1`` would pass vacuously.
            _wait(
                supervisor,
                lambda: (
                    (supervisor.store.replica_status(0) or {}).get(
                        "attempt", 0
                    ) >= 2
                    and supervisor.healthy_replicas() == 1
                ),
                message="replacement process healthy",
            )
            # The restarted process is not chaos-armed: it sails past
            # request 3, and the report memoized before the kill is
            # still the fleet's answer.
            for _ in range(5):
                status, body = _generate(
                    supervisor.host, supervisor.port, module_id
                )
                assert status == 200
                assert body["cached"] is True
            spawn_events = [
                event for event in supervisor.store.events()
                if event["kind"] in ("spawn", "restart")
            ]
            assert "chaos armed" in spawn_events[0]["detail"]
            assert "chaos armed" not in spawn_events[-1]["detail"]
        finally:
            supervisor.drain()
            supervisor.close()


class TestRollingRestart:
    def test_rolling_restart_recycles_without_dropping_the_port(self, tmp_path):
        supervisor = _supervisor(tmp_path / "fleet.db", replicas=2).start()
        try:
            _wait(
                supervisor, lambda: supervisor.healthy_replicas() == 2,
                message="2 healthy replicas",
            )
            before = dict(supervisor.pids)
            halt = threading.Event()
            double_faults = []

            def probe():
                # Loadgen's keep-alive rule, distilled: a single failed
                # probe may be the connection race of a drain; the same
                # probe failing twice in a row means the port went dark.
                while not halt.is_set():
                    try:
                        _fetch(supervisor.host, supervisor.port, timeout=5.0)
                    except (OSError, http.client.HTTPException):
                        try:
                            _fetch(supervisor.host, supervisor.port, timeout=5.0)
                        except (OSError, http.client.HTTPException) as error:
                            double_faults.append(error)
                    time.sleep(0.01)

            prober = threading.Thread(target=probe, daemon=True)
            prober.start()
            try:
                assert supervisor.rolling_restart(settle_timeout=45.0) is True
            finally:
                halt.set()
                prober.join(10.0)
            assert double_faults == []
            after = dict(supervisor.pids)
            assert set(after) == set(before)
            assert all(after[r] != before[r] for r in before)
            kinds = _event_kinds(supervisor)
            assert kinds.count("rolling-restart") >= 2  # begin + spawns + end
        finally:
            supervisor.drain()
            supervisor.close()


class TestDurabilityAcceptance:
    def test_full_fleet_restart_resumes_state_byte_identically(self, tmp_path):
        db = tmp_path / "fleet.db"
        supervisor = _supervisor(db, replicas=2, rate=50.0, burst=10.0).start()
        module_id = None
        try:
            _wait(
                supervisor, lambda: supervisor.healthy_replicas() == 2,
                message="2 healthy replicas",
            )
            module_id = _first_module(supervisor)
            for _ in range(3):
                status, _ = _generate(
                    supervisor.host, supervisor.port, module_id, tenant="acct"
                )
                assert status == 200
        finally:
            assert supervisor.drain() is True
        tenants_before = supervisor.store.tenant_snapshot()
        reports_before = _served(supervisor)
        journal = supervisor.store.journal
        progress = campaign_progress(journal, journal.meta(HTTP_CAMPAIGN_ID))
        supervisor.close()
        assert tenants_before["acct"]["allowed"] == 3
        assert reports_before == 1
        # The served report is a done entry of the `http-server` row,
        # planned over the whole registered catalog.
        assert progress["n_done"] == 1
        assert progress["n_planned"] == len(default_catalog())

        # A brand-new fleet on the same journal: the very first answer
        # is memoized, and tenant accounting continues from the exact
        # journaled balance instead of a fresh bucket.
        revived = _supervisor(db, replicas=2, rate=50.0, burst=10.0).start()
        try:
            assert revived.store.tenant_snapshot() == tenants_before
            _wait(
                revived, lambda: revived.healthy_replicas() == 2,
                message="revived fleet healthy",
            )
            status, body = _generate(
                revived.host, revived.port, module_id, tenant="acct"
            )
            assert status == 200
            assert body["cached"] is True
            snapshot = revived.store.tenant_snapshot()["acct"]
            assert snapshot["allowed"] == tenants_before["acct"]["allowed"] + 1
        finally:
            revived.drain()
            revived.close()


# ----------------------------------------------------------------------
# The CLI surface: `serve --replicas N` + SIGTERM drain + `serve fleet`.
# ----------------------------------------------------------------------
def _cli_env(root):
    return {"PYTHONPATH": str(root / "src"),
            "PATH": "/usr/bin:/bin:/usr/local/bin"}


def test_cli_fleet_sigterm_drains_and_post_mortem_renders(tmp_path):
    root = Path(__file__).resolve().parents[1]
    db = tmp_path / "cli-fleet.db"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--replicas", "2", "--port", "0", "--db", str(db),
         "--register-all", "--heartbeat-interval", "0.2"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        cwd=root,
        env=_cli_env(root),
    )
    try:
        banner = process.stderr.readline()
        match = re.search(r"http://([\d.]+):(\d+)", banner)
        assert match, f"no address in banner: {banner!r}"
        host, port = match.group(1), int(match.group(2))
        deadline = time.time() + 45
        while time.time() < deadline:
            try:
                if _fetch(host, port, timeout=5.0)[0] == 200:
                    break
            except (OSError, http.client.HTTPException):
                time.sleep(0.1)
        else:
            pytest.fail("fleet never answered /healthz")
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0  # graceful drain
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()

    post_mortem = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "fleet", "--db", str(db)],
        capture_output=True, text=True, cwd=root, env=_cli_env(root),
        timeout=60,
    )
    assert post_mortem.returncode == 0, post_mortem.stderr
    assert "drained" in post_mortem.stdout
    assert "EVENTS" in post_mortem.stdout
    assert "fleet-stop" in post_mortem.stdout

    gauges = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "fleet", "--db", str(db),
         "--prometheus"],
        capture_output=True, text=True, cwd=root, env=_cli_env(root),
        timeout=60,
    )
    assert gauges.returncode == 0, gauges.stderr
    assert 'repro_serve_replica_up{replica="0"}' in gauges.stdout
    assert 'repro_serve_replica_attempt{replica="1"}' in gauges.stdout


def test_cli_fleet_requires_a_db(tmp_path):
    root = Path(__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve",
         "--replicas", "2", "--port", "0"],
        capture_output=True, text=True, cwd=root, env=_cli_env(root),
        timeout=60,
    )
    assert run.returncode == 2
    assert "--db" in run.stderr
