"""Journaled rows from before the engine event log was removed.

Engine stats snapshots journaled by older builds carry ``n_events``,
``max_events`` and ``dropped_events`` — in ``process_status.stats_json``
heartbeats of serving replicas and shard workers, and (``dropped_events``
only) in ``campaign_snapshots`` time-series samples.  Every reader of
those rows must ignore the old keys: its output equals the output for
the same rows without them.
"""

from __future__ import annotations

import pytest

from repro.campaign import CampaignJournal
from repro.campaign.journal import shard_campaign_id
from repro.campaign.sharding import shard_journal_path
from repro.core.generation import ExampleGenerator
from repro.engine import (
    BreakerPolicy,
    EngineConfig,
    FaultPlan,
    InvocationEngine,
    RetryPolicy,
)
from repro.engine.telemetry import merge_stats_snapshots
from repro.obs.aggregate import MetricsAggregator
from repro.obs.metrics import render_prometheus
from repro.obs.timeseries import (
    rebuild_ring,
    render_timeline,
    sample_rates,
    take_sample,
)
from repro.processlog import FLEET_SCOPE, REPLICA, SHARD_WORKER
from repro.serve.state import ServeStateStore

#: The event-log keys an old build wrote into every stats snapshot.
LEGACY_STATS_KEYS = {"n_events": 124, "max_events": 10_000, "dropped_events": 3}


def _legacy(stats: dict) -> dict:
    return {**stats, **LEGACY_STATS_KEYS}


@pytest.fixture(scope="module")
def engines(setup):
    """Two engines driven over a few modules, one under injected faults."""
    engines = []
    for fault_rate in (0.0, 0.3):
        engine = InvocationEngine(
            EngineConfig(
                cache_size=64,
                retry=RetryPolicy(seed=7),
                fault_plan=FaultPlan(seed=7, transient_failure_rate=fault_rate),
                breaker=BreakerPolicy(),
            )
        )
        generator = ExampleGenerator(setup.ctx, setup.pool, engine=engine)
        for _ in range(2):
            generator.generate_many(setup.catalog[:4])
        engines.append(engine)
    return engines


@pytest.fixture(scope="module")
def modern_stats(engines):
    return [engine.stats() for engine in engines]


def test_merge_ignores_legacy_keys(modern_stats):
    legacy = [_legacy(stats) for stats in modern_stats]
    assert merge_stats_snapshots(legacy) == merge_stats_snapshots(modern_stats)


def test_render_prometheus_ignores_legacy_keys(modern_stats):
    for stats in modern_stats:
        assert render_prometheus(_legacy(stats)) == render_prometheus(stats)


def _write_fleet(directory, snapshots) -> str:
    """One ``--db`` file holding a serve-state store with one replica
    heartbeat per snapshot and a sharded campaign journal with one
    shard-worker heartbeat per snapshot, all stamped at a fixed wall
    time."""
    directory.mkdir()
    db = directory / "fleet.db"
    state = ServeStateStore(db)
    try:
        for replica, stats in enumerate(snapshots):
            state.processes.record_status(
                REPLICA, FLEET_SCOPE, replica, pid=10 + replica, attempt=1,
                phase="running", work=5, started_wall=90.0,
                heartbeat_wall=99.0, stats=stats,
            )
    finally:
        state.close()
    modules = [f"m{index}" for index in range(2 * len(snapshots))]
    journal = CampaignJournal(db)
    try:
        journal.create("c", 7, modules, {"workers": len(snapshots)})
    finally:
        journal.close()
    for shard, stats in enumerate(snapshots):
        shard_journal = CampaignJournal(shard_journal_path(db, shard))
        try:
            cid = shard_campaign_id("c", shard)
            shard_journal.create(cid, 7, modules[2 * shard: 2 * shard + 2], {})
            shard_journal.processes.record_status(
                SHARD_WORKER, cid, shard, pid=20 + shard, attempt=1,
                phase="running", work=2, started_wall=90.0,
                heartbeat_wall=99.0, stats=stats,
            )
        finally:
            shard_journal.close()
    return str(directory)


def _without(row: dict, keys) -> dict:
    return {key: value for key, value in row.items() if key not in keys}


def test_aggregator_ignores_legacy_keys(modern_stats, tmp_path):
    outputs = []
    for name, snapshots in (
        ("legacy", [_legacy(stats) for stats in modern_stats]),
        ("modern", modern_stats),
    ):
        directory = _write_fleet(tmp_path / name, snapshots)
        aggregator = MetricsAggregator(
            db=f"{directory}/fleet.db",
            campaign_id="c",
            wall_clock=lambda: 100.0,
        )
        snapshot = aggregator.snapshot()
        assert snapshot["fleet"]["replica_snapshots"] == len(modern_stats)
        assert snapshot["fleet"]["worker_snapshots"] == len(modern_stats)
        outputs.append((snapshot, aggregator.to_prometheus()))
    (legacy, legacy_text), (modern, modern_text) = outputs
    assert legacy_text == modern_text
    # Worker rows carry each shard's journaled snapshot as it was read;
    # everything folded from them must match exactly.
    legacy_workers = legacy.pop("workers")
    modern_workers = modern.pop("workers")
    assert legacy == modern
    assert [
        {**row, "stats": _without(row["stats"], LEGACY_STATS_KEYS)}
        for row in legacy_workers
    ] == modern_workers


def _journal_samples(db, samples) -> CampaignJournal:
    journal = CampaignJournal(db)
    journal.create("c", 7, ["m1"], {})
    for sample in samples:
        journal.record_snapshot("c", sample["t_ms"], sample)
    return journal


def test_timeline_readers_ignore_legacy_keys(engines, tmp_path):
    modern = [
        {
            "seq": seq,
            "run": 0,
            "t_ms": 100.0 * seq,
            **take_sample(engine, {"n_planned": 4, "n_done": seq, "n_skipped": 0}),
        }
        for seq, engine in enumerate(engines + engines)
    ]
    legacy = [{**sample, "dropped_events": 3} for sample in modern]
    rings, timelines = [], []
    for name, samples in (("legacy", legacy), ("modern", modern)):
        journal = _journal_samples(tmp_path / f"{name}.db", samples)
        try:
            rings.append(rebuild_ring(journal, "c", maxlen=3))
            timelines.append(render_timeline(journal.snapshots("c")))
        finally:
            journal.close()
    legacy_ring, modern_ring = rings
    assert timelines[0] == timelines[1]
    assert len(legacy_ring) == len(modern_ring) == 3
    assert legacy_ring.dropped_samples == modern_ring.dropped_samples == 1
    assert [
        _without(sample, {"dropped_events"}) for sample in legacy_ring.samples()
    ] == list(modern_ring.samples())
    assert render_timeline(list(legacy_ring.samples())) == render_timeline(
        list(modern_ring.samples())
    )
    legacy_window, modern_window = legacy_ring.window(2), modern_ring.window(2)
    assert sample_rates(*legacy_window) == sample_rates(*modern_window)
