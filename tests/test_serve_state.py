"""Tests of the durable serving state store: the shared registration
set and memoized-report round-trips in its journal's ``http-server``
row, wall-clock token buckets that survive process restarts
byte-for-byte, and the replica heartbeat/event rows the ``repro-cli
serve fleet`` post-mortem renders."""

from __future__ import annotations

import threading

import pytest

from repro.campaign.journal import UnknownCampaignError
from repro.core.generation import ExampleGenerator
from repro.processlog import FLEET_SCOPE, REPLICA, has_status
from repro.serve import ServeStateStore
from repro.serve.sampling import HTTP_CAMPAIGN_ID, open_http_campaign


class WallClock:
    """A hand-advanced wall clock (the store must never need time.time)."""

    def __init__(self, now=1_000_000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "serve-state.db")


@pytest.fixture
def clock():
    return WallClock()


@pytest.fixture
def store(db, clock):
    store = ServeStateStore(db, wall_clock=clock)
    yield store
    store.close()


def _planned(store):
    return store.journal.meta(HTTP_CAMPAIGN_ID).module_ids


class TestRegistrations:
    def test_first_registration_wins_the_insert(self, store):
        open_http_campaign(store.journal, 2014)
        assert store.journal.add_module(HTTP_CAMPAIGN_ID, "xf.a") is True
        assert store.journal.add_module(HTTP_CAMPAIGN_ID, "xf.a") is False
        assert "xf.a" in _planned(store)
        assert "xf.b" not in _planned(store)
        assert _planned(store) == ("xf.a",)

    def test_two_handles_share_one_file(self, db, clock, store):
        open_http_campaign(store.journal, 2014)
        other = ServeStateStore(db, wall_clock=clock)
        try:
            store.journal.add_module(HTTP_CAMPAIGN_ID, "xf.a")
            assert "xf.a" in _planned(other)
            assert other.journal.add_module(HTTP_CAMPAIGN_ID, "xf.a") is False
        finally:
            other.close()

    def test_concurrent_handles_register_each_module_once(self, db, store):
        # Fleet-wide freshness: of racing processes adding one module,
        # exactly one is told it was first.
        open_http_campaign(store.journal, 2014)
        handles = [ServeStateStore(db) for _ in range(4)]
        fresh = []
        barrier = threading.Barrier(len(handles))

        def register(handle):
            barrier.wait()
            for index in range(20):
                if handle.journal.add_module(HTTP_CAMPAIGN_ID, f"xf.{index}"):
                    fresh.append(index)

        threads = [
            threading.Thread(target=register, args=(handle,)) for handle in handles
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            for handle in handles:
                handle.close()
        assert sorted(fresh) == list(range(20))
        assert sorted(_planned(store)) == sorted(f"xf.{i}" for i in range(20))

    def test_unknown_campaign_raises(self, store):
        with pytest.raises(UnknownCampaignError):
            store.journal.add_module("ghost", "xf.a")


class TestReports:
    def test_round_trip_and_idempotent_upsert(self, store, ctx, pool, catalog):
        report = ExampleGenerator(ctx, pool).generate(catalog[0])
        store.journal.record_done(HTTP_CAMPAIGN_ID, report)
        # every replica writes the same
        store.journal.record_done(HTTP_CAMPAIGN_ID, report)
        assert store.journal.entry(HTTP_CAMPAIGN_ID, report.module_id).report == report
        assert store.journal.entry(HTTP_CAMPAIGN_ID, "xf.missing") is None
        assert store.journal.progress_counts(HTTP_CAMPAIGN_ID)["n_done"] == 1


class TestTenantBuckets:
    def test_burst_then_empty_then_refill(self, store, clock):
        # A fresh tenant gets the full burst...
        for _ in range(3):
            allowed, retry = store.charge_tenant("t", rate=1.0, burst=3.0)
            assert allowed and retry == 0.0
        # ...then is limited with a refill-accurate hint...
        allowed, retry = store.charge_tenant("t", rate=1.0, burst=3.0)
        assert not allowed
        assert retry == pytest.approx(1.0)
        # ...and the wall clock refills it.
        clock.advance(2.0)
        allowed, _ = store.charge_tenant("t", rate=1.0, burst=3.0)
        assert allowed

    def test_accounting_survives_a_full_restart_byte_identically(
        self, db, clock
    ):
        first = ServeStateStore(db, wall_clock=clock)
        for _ in range(2):
            first.charge_tenant("t", rate=1.0, burst=5.0)
        before = first.tenant_snapshot()
        first.close()
        # A brand-new handle — the restarted fleet — resumes the exact
        # journaled balance, not a fresh bucket.
        second = ServeStateStore(db, wall_clock=clock)
        try:
            assert second.tenant_snapshot() == before
            allowed, _ = second.charge_tenant("t", rate=1.0, burst=5.0)
            assert allowed
            assert second.tenant_snapshot()["t"]["tokens"] == pytest.approx(2.0)
            assert second.tenant_snapshot()["t"]["allowed"] == 3
        finally:
            second.close()

    def test_bespoke_budget_outlives_the_configuring_process(self, db, clock):
        first = ServeStateStore(db, wall_clock=clock)
        first.configure_tenant("vip", rate=100.0, burst=2.0)
        first.close()
        second = ServeStateStore(db, wall_clock=clock)
        try:
            # The row's own rate/burst win over the caller's defaults.
            second.charge_tenant("vip", rate=1.0, burst=50.0)
            second.charge_tenant("vip", rate=1.0, burst=50.0)
            allowed, retry = second.charge_tenant("vip", rate=1.0, burst=50.0)
            assert not allowed
            assert retry == pytest.approx(1.0 / 100.0)
        finally:
            second.close()

    def test_configure_validation(self, store):
        with pytest.raises(ValueError, match="rate"):
            store.configure_tenant("t", rate=0.0, burst=2.0)
        with pytest.raises(ValueError, match="burst"):
            store.configure_tenant("t", rate=1.0, burst=0.5)

    def test_clock_stepping_backwards_never_mints_tokens(self, store, clock):
        store.charge_tenant("t", rate=1.0, burst=2.0)
        clock.advance(-50.0)  # NTP step / VM resume
        store.charge_tenant("t", rate=1.0, burst=2.0)
        allowed, _ = store.charge_tenant("t", rate=1.0, burst=2.0)
        assert not allowed  # burst spent; negative elapsed minted nothing

    def test_concurrent_handles_never_double_spend(self, db):
        # 4 threads x 25 charges against burst 50, zero refill: exactly
        # 50 can be admitted in total.  BEGIN IMMEDIATE serializes the
        # read-modify-write, so this holds regardless of interleaving.
        stores = [ServeStateStore(db) for _ in range(4)]
        admitted = []
        lock = threading.Lock()

        def worker(handle):
            local = 0
            for _ in range(25):
                allowed, _ = handle.charge_tenant("t", rate=1e-9, burst=50.0)
                local += allowed
            with lock:
                admitted.append(local)

        threads = [
            threading.Thread(target=worker, args=(handle,))
            for handle in stores
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for handle in stores:
            handle.close()
        assert sum(admitted) == 50


class TestReplicaRows:
    def test_events_keep_recording_order(self, store):
        store.record_event(-1, "fleet-start", "2 replicas")
        store.record_event(0, "spawn", "pid 1")
        store.record_event(0, "crash")
        events = store.events()
        assert [event["kind"] for event in events] == [
            "fleet-start", "spawn", "crash",
        ]
        assert events[0]["replica"] == -1
        assert events[2]["detail"] == ""


def has_serve_state(path):
    return has_status(path, REPLICA, FLEET_SCOPE)


class TestHasServeState:
    def test_missing_file_and_foreign_sqlite(self, tmp_path, db):
        assert not has_serve_state(str(tmp_path / "nope.db"))
        assert not has_serve_state("")
        # A journal without fleet tables (or with empty ones) is not
        # fleet state — `repro-cli top` must not grow a replicas panel
        # for a plain single-process journal.
        store = ServeStateStore(db)
        store.close()
        assert not has_serve_state(db)

    def test_true_once_a_replica_row_exists(self, db):
        store = ServeStateStore(db)
        store.processes.record_status(
            REPLICA, FLEET_SCOPE, 0, pid=1, attempt=1, phase="running",
            work=0, started_wall=0.0,
        )
        store.close()
        assert has_serve_state(db)
