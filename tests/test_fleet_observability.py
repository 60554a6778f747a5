"""End-to-end acceptance of the fleet observability plane.

One serve fleet (two SO_REUSEPORT replicas) and one sharded campaign
(two spawned shard workers) share a single trace id — the campaign's
derived ``campaign_trace_id`` — and every span lands in SQLite journals.
The tests then reconstruct the cross-process trace, the unified metrics
fold, and the merged sampling profiles *from the journals alone*,
including after one replica is SIGKILLed mid-run.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import time

import pytest

from repro.campaign import CampaignConfig, CampaignJournal, CampaignSupervisor
from repro.campaign.sharding import shard_campaign_id, shard_journal_path
from repro.engine.telemetry import merge_stats_snapshots
from repro.obs.aggregate import (
    MetricsAggregator,
    collect_fleet_spans,
    render_fleet_trace,
    spans_for_trace,
)
from repro.obs.profiler import PROFILE_EVENT_KIND
from repro.obs.propagation import (
    TRACE_ID_MAX_LEN,
    campaign_trace_id,
    normalize_trace_id,
)
from repro.processlog import FLEET_SCOPE, REPLICA
from repro.serve import (
    AnnotationServer,
    AnnotationService,
    FleetConfig,
    ServeConfig,
    ServeSupervisor,
)
from repro.serve.sampling import HTTP_CAMPAIGN_ID

CAMPAIGN = "fleetobs"
TRACE = campaign_trace_id(CAMPAIGN)

FAST = dict(heartbeat_interval=0.2, restart_backoff=0.05, drain_timeout=5.0)


def _fetch(host, port, method="GET", path="/healthz", body=None,
           headers=None, timeout=15.0):
    """One request on a fresh connection; (status, headers, body)."""
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        payload = json.loads(response.read() or b"{}")
        return response.status, dict(response.getheaders()), payload
    finally:
        connection.close()


def _wait(supervisor, predicate, timeout=45.0, message="condition"):
    deadline = time.time() + timeout
    while time.time() < deadline:
        supervisor.poll()
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"{message} not reached within {timeout}s")


def _supervisor(db, replicas=2, **fleet_kwargs):
    config = ServeConfig(host="127.0.0.1", port=0, db=str(db), rate=None)
    fleet = FleetConfig(replicas=replicas, **{**FAST, **fleet_kwargs})
    # memoize=False: every /v1/generate invokes the engine (cache hits
    # answer from the store without opening a span), so each request
    # journals a span on whichever replica the kernel picked.
    return ServeSupervisor(
        config, fleet, service={"seed": 2014, "memoize": False},
        register_all=True,
    )


@pytest.fixture(scope="module")
def fleet_world(tmp_path_factory, catalog):
    """The whole acceptance scenario, built once.

    Two traced replicas answer client requests carrying the campaign's
    derived trace id; one replica is SIGKILLed after its spans are
    journaled; then a two-worker sharded campaign runs against the same
    SQLite file under the same (derived) trace id.  Both process pools
    run with ``REPRO_PROFILE_HZ`` armed so every process journals a
    sampling profile on exit.
    """
    db = tmp_path_factory.mktemp("fleetobs") / "fleet.db"
    os.environ["REPRO_PROFILE_HZ"] = "100"
    killed_pid = None
    try:
        supervisor = _supervisor(db).start()
        try:
            _wait(
                supervisor, lambda: supervisor.healthy_replicas() == 2,
                message="2 healthy replicas",
            )
            module_id = min(supervisor.store.journal.meta(HTTP_CAMPAIGN_ID).module_ids)

            def replicas_with_spans():
                return {
                    span["_replica"] for span in supervisor.store.spans()
                }

            deadline = time.time() + 60.0
            while len(replicas_with_spans()) < 2:
                if time.time() > deadline:
                    pytest.fail("kernel never spread requests to both "
                                "replicas within 60s")
                status, _, _ = _fetch(
                    supervisor.host, supervisor.port, "POST", "/v1/generate",
                    body=json.dumps({"module_id": module_id}),
                    headers={
                        "Content-Type": "application/json",
                        "X-Trace-Id": TRACE,
                    },
                )
                assert status == 200
                supervisor.poll()

            # SIGKILL one replica: its journaled spans must survive and
            # the fleet trace must still assemble from the file alone.
            victim = sorted(supervisor.pids)[0]
            killed_pid = supervisor.pids[victim]
            os.kill(killed_pid, signal.SIGKILL)
            # Two waits: the kill lands asynchronously, so demand the
            # victim's pid is gone (crash detected, restart scheduled)
            # before asking for two healthy replicas again — otherwise
            # the second predicate is satisfied by the corpse.
            _wait(
                supervisor,
                lambda: killed_pid not in supervisor.pids.values(),
                message="SIGKILL detected",
            )
            _wait(
                supervisor, lambda: supervisor.healthy_replicas() == 2,
                message="replica restarted after SIGKILL",
            )
        finally:
            supervisor.drain()
            supervisor.close()

        result = CampaignSupervisor(
            db,
            [module.module_id for module in catalog],
            CampaignConfig(
                limit=6, workers=2, trace=True,
                heartbeat_interval=0.2, restart_backoff=0.05,
            ),
        ).run(CAMPAIGN)
        assert result.status == "complete"
    finally:
        os.environ.pop("REPRO_PROFILE_HZ", None)
    return {"db": str(db), "killed_pid": killed_pid}


# ----------------------------------------------------------------------
# The tentpole acceptance: one trace across the whole fleet
# ----------------------------------------------------------------------
class TestFleetTraceAssembly:
    def test_one_trace_covers_replicas_and_shard_workers(self, fleet_world):
        spans = collect_fleet_spans(fleet_world["db"], CAMPAIGN)
        mine = spans_for_trace(TRACE, spans)
        assert mine
        hops = {
            (
                span.attributes.get("process_role"),
                span.attributes.get("process_id"),
            )
            for span in mine
        }
        replica_hops = {hop for hop in hops if hop[0] == "replica"}
        worker_hops = {hop for hop in hops if hop[0] == "shard-worker"}
        assert len(replica_hops) >= 2
        assert worker_hops == {("shard-worker", 0), ("shard-worker", 1)}

    def test_spans_survive_the_sigkilled_replica(self, fleet_world):
        # The victim's spans were journaled before the SIGKILL; the
        # reader never needed the process, only the file.
        assert fleet_world["killed_pid"] is not None
        spans = collect_fleet_spans(fleet_world["db"], CAMPAIGN)
        assert spans_for_trace(TRACE, spans)

    def test_render_groups_by_process_hop(self, fleet_world):
        spans = collect_fleet_spans(fleet_world["db"], CAMPAIGN)
        text = render_fleet_trace(TRACE, spans_for_trace(TRACE, spans))
        assert f"trace {TRACE}" in text
        assert "[shard-worker 0]" in text
        assert "[shard-worker 1]" in text
        assert text.count("[replica ") >= 2

    def test_cli_resolves_the_campaign_id_to_its_trace(
        self, fleet_world, capsys
    ):
        from repro.cli import main

        code = main(["trace", CAMPAIGN, "--db", fleet_world["db"], "--fleet"])
        out = capsys.readouterr().out
        assert code == 0
        assert f"trace {TRACE}" in out
        assert "process hop" in out

    def test_cli_slowest_ranks_across_processes(self, fleet_world, capsys):
        from repro.cli import main

        code = main([
            "trace", CAMPAIGN, "--db", fleet_world["db"], "--fleet",
            "--slowest", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "shard-worker" in out

    def test_cli_json_spans_carry_role_and_trace(self, fleet_world, capsys):
        from repro.cli import main

        code = main([
            "trace", CAMPAIGN, "--db", fleet_world["db"], "--fleet", "--json",
        ])
        out = capsys.readouterr().out
        assert code == 0
        rows = json.loads(out)
        assert rows
        roles = {row["attributes"]["process_role"] for row in rows}
        assert "replica" in roles and "shard-worker" in roles


# ----------------------------------------------------------------------
# The unified scrape
# ----------------------------------------------------------------------
class TestUnifiedScrape:
    def test_supervisor_scrape_equals_the_manual_fold(self, tmp_path):
        """The fleet /metrics endpoint is digest-identical to folding
        the per-replica journaled stats by hand."""
        supervisor = _supervisor(
            tmp_path / "scrape.db", metrics_port=0
        ).start()
        try:
            _wait(
                supervisor, lambda: supervisor.healthy_replicas() == 2,
                message="2 healthy replicas",
            )
            module_id = min(supervisor.store.journal.meta(HTTP_CAMPAIGN_ID).module_ids)
            for _ in range(4):
                status, _, _ = _fetch(
                    supervisor.host, supervisor.port, "POST", "/v1/generate",
                    body=json.dumps({"module_id": module_id}),
                    headers={"Content-Type": "application/json"},
                )
                assert status == 200
            # Wait for every replica's heartbeat to journal a stats
            # snapshot that has seen the traffic.
            _wait(
                supervisor,
                lambda: len(
                    supervisor.store.processes.stats(REPLICA, FLEET_SCOPE)
                ) == 2,
                message="both replicas journaled stats",
            )
            time.sleep(0.5)  # one more beat: snapshots include the calls
            server = supervisor.metrics_server
            assert server is not None
            status, _, scraped = _fetch(
                server.host, server.port, path="/metrics.json"
            )
            assert status == 200
            manual = merge_stats_snapshots(
                [
                    snapshot
                    for _, snapshot in sorted(
                        supervisor.store.processes.stats(
                            REPLICA, FLEET_SCOPE
                        ).items()
                    )
                ]
            )
            fold = {
                "counters": manual.get("counters"),
                "latency": manual.get("latency"),
            }
            seen = {
                "counters": scraped.get("counters"),
                "latency": scraped.get("latency"),
            }
            assert json.dumps(seen, sort_keys=True) == json.dumps(
                fold, sort_keys=True
            )
            assert scraped["fleet"]["replica_snapshots"] == 2
        finally:
            supervisor.drain()
            supervisor.close()

    def test_metrics_cli_folds_offline_from_the_journal(
        self, fleet_world, capsys
    ):
        from repro.cli import main

        code = main([
            "metrics", "--fleet", "--db", fleet_world["db"],
            "--campaign", CAMPAIGN,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "repro_invocations_total" in out

    def test_fleet_snapshot_reports_its_sources(self, fleet_world):
        snapshot = MetricsAggregator(
            db=fleet_world["db"], campaign_id=CAMPAIGN
        ).snapshot()
        assert snapshot["fleet"]["replica_snapshots"] >= 2
        assert snapshot["fleet"]["worker_snapshots"] == 2


# ----------------------------------------------------------------------
# Continuous profiling, journaled per process
# ----------------------------------------------------------------------
class TestFleetProfiles:
    def test_shard_workers_journal_their_profiles(self, fleet_world):
        for shard in range(2):
            journal = CampaignJournal(
                shard_journal_path(fleet_world["db"], shard)
            )
            try:
                events = journal.worker_events(
                    shard_campaign_id(CAMPAIGN, shard)
                )
            finally:
                journal.close()
            profiles = [
                event for event in events
                if event["kind"] == PROFILE_EVENT_KIND
            ]
            assert profiles, f"shard {shard} journaled no profile"
            payload = json.loads(profiles[-1]["detail"])
            assert payload["hz"] == 100.0
            assert "stacks" in payload

    def test_draining_replicas_journal_their_profiles(self, fleet_world):
        from repro.serve.state import ServeStateStore

        store = ServeStateStore(fleet_world["db"])
        try:
            profiles = [
                event for event in store.events()
                if event["kind"] == PROFILE_EVENT_KIND
            ]
        finally:
            store.close()
        # The SIGKILLed replica never drains (no profile); its restarted
        # successor and the sibling both do.
        assert len(profiles) >= 2

    def test_profile_cli_merges_the_campaign_fleet(self, fleet_world, capsys):
        from repro.cli import main

        code = main([
            "profile", "--campaign", CAMPAIGN, "--db", fleet_world["db"],
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "samples" in out

    def test_profile_cli_serve_side(self, fleet_world, capsys):
        from repro.cli import main

        code = main(["profile", "--serve", "--db", fleet_world["db"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "samples" in out


# ----------------------------------------------------------------------
# The trace-id cardinality bound at the HTTP boundary (satellite)
# ----------------------------------------------------------------------
class TestTraceHeaderBoundary:
    @pytest.fixture()
    def server(self):
        with AnnotationServer(
            AnnotationService(memoize=True), ServeConfig(rate=None)
        ) as running:
            yield running

    def _healthz(self, server, headers):
        return _fetch(
            server.host, server.port, path="/healthz", headers=headers
        )

    def test_oversized_id_is_truncated_not_stored_verbatim(self, server):
        status, headers, _ = self._healthz(
            server, {"X-Trace-Id": "a" * 5000}
        )
        assert status == 200
        echoed = headers["X-Trace-Id"]
        assert len(echoed) == TRACE_ID_MAX_LEN

    def test_unusable_id_falls_back_to_a_generated_one(self, server):
        status, headers, _ = self._healthz(
            server, {"X-Trace-Id": "zzzz-????!!"}
        )
        assert status == 200
        echoed = headers["X-Trace-Id"]
        assert echoed == normalize_trace_id(echoed)
        assert len(echoed) == 32  # freshly minted, not the hostile input

    def test_hostile_id_keeps_only_its_hex(self, server):
        status, headers, _ = self._healthz(
            server, {"X-Trace-Id": "DROP TABLE spans; --"}
        )
        assert status == 200
        assert headers["X-Trace-Id"] == "dabea"

    def test_client_id_is_normalized_on_echo(self, server):
        status, headers, _ = self._healthz(
            server, {"X-Trace-Id": "DEADBEEF42"}
        )
        assert status == 200
        assert headers["X-Trace-Id"] == "deadbeef42"

    def test_body_trace_id_matches_the_header(self, server):
        status, headers, body = self._healthz(
            server, {"X-Trace-Id": "abc123"}
        )
        assert status == 200
        assert body["trace_id"] == headers["X-Trace-Id"] == "abc123"
