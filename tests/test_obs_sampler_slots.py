"""Two serving replicas sampling into one journal.

Replicas of a fleet share the ``http-server`` timeline, and each one's
counters are cumulative within its own process.  Every reader must
fold per slot (replica) and per run segment (process start) before it
combines anything: the rebuilt burn view, the ``repro-cli top`` rate
line, and the alert fold.  Replica 0 serves 100 requests/s with no
5xx; replica 1 serves 10 requests/s with half of them 5xx.
"""

from __future__ import annotations

import io
import re
import sqlite3

import pytest

from repro.campaign import CampaignJournal
from repro.obs.dashboard import Dashboard
from repro.obs.slo import SLOEvaluator, render_alerts, window_burns
from repro.obs.timeseries import Sampler, rebuild_ring, sample_rates
from repro.serve.sampling import HTTP_CAMPAIGN_ID, HTTP_SLOS, http_sample

AVAILABILITY = HTTP_SLOS[0]
assert AVAILABILITY.name == "http-availability"


class Clock:
    """A scripted monotonic clock shared by every sampler."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class Replica:
    """Cumulative HTTP accounting of one replica process."""

    def __init__(self) -> None:
        self.total = 0
        self.errors = 0

    def serve(self, requests: int, errors: int) -> None:
        self.total += requests
        self.errors += errors

    def snapshot(self) -> dict:
        return {
            "requests_total": self.total,
            "status_classes": {"2xx": self.total - self.errors, "5xx": self.errors},
            "latency": {
                "count": self.total,
                "sum_ms": float(self.total),
                "p95_ms": 1.0,
                "max_ms": 1.0,
                "cumulative_buckets": [["5", self.total], ["+Inf", self.total]],
            },
        }


def _sampler(journal, slot, replica, clock) -> Sampler:
    return Sampler(
        lambda: http_sample(replica.snapshot()),
        journal=journal,
        campaign_id=HTTP_CAMPAIGN_ID,
        slot=slot,
        evaluator=SLOEvaluator(HTTP_SLOS),
        clock=clock,
    )


@pytest.fixture
def journal(tmp_path):
    journal = CampaignJournal(tmp_path / "fleet.sqlite")
    journal.create(HTTP_CAMPAIGN_ID, 7, [], config={"kind": "http-server"})
    yield journal
    journal.close()


@pytest.fixture
def fleet(journal):
    """Two replicas, six interleaved one-second rounds, replica 1 half a
    second behind replica 0; replica 0 has a 5xx blip in round 2 and is
    clean again by round 4."""
    clock = Clock()
    replicas = [Replica(), Replica()]
    samplers = [_sampler(journal, slot, replicas[slot], clock) for slot in (0, 1)]
    for round_ in range(6):
        replicas[0].serve(100, 50 if round_ == 2 else 0)
        samplers[0].sample()
        clock.now += 0.5
        replicas[1].serve(10, 5)
        samplers[1].sample()
        clock.now += 0.5
    return clock, replicas, samplers


def _slot_samples(samples: "list[dict]", slot: int) -> "list[dict]":
    return [sample for sample in samples if sample.get("slot") == slot]


def _frame(journal) -> str:
    return Dashboard(journal, HTTP_CAMPAIGN_ID, stream=io.StringIO()).frame()


def _frame_rate(frame: str) -> float:
    match = re.search(r"\| (-?[\d.]+) calls/s", frame)
    assert match, frame
    return float(match.group(1))


def _per_slot_rate(samples: "list[dict]", slot: int) -> float:
    rates = sample_rates(*_slot_samples(samples, slot)[-2:])
    return rates.get("calls_per_s", 0.0)


# ----------------------------------------------------------------------
def test_each_replica_stamps_its_slot_and_own_run(journal, fleet):
    samples = journal.snapshots(HTTP_CAMPAIGN_ID)
    assert [sample["slot"] for sample in samples] == [0, 1] * 6
    assert {sample["run"] for sample in samples} == {0}
    for slot in (0, 1):
        assert [s["seq"] for s in _slot_samples(samples, slot)] == list(range(6))


def test_rebuilt_burns_are_per_slot(journal, fleet):
    rings = {slot: rebuild_ring(journal, HTTP_CAMPAIGN_ID, slot=slot) for slot in (0, 1)}
    burns = {
        slot: window_burns(AVAILABILITY, ring.window(AVAILABILITY.fast_window))
        for slot, ring in rings.items()
    }
    assert burns[0]["campaign"] == pytest.approx(0.0)
    assert burns[1]["campaign"] == pytest.approx(50.0)
    # The slotless ring (campaigns, standalone servers) holds no replica's.
    assert len(rebuild_ring(journal, HTTP_CAMPAIGN_ID)) == 0
    # A window over the shared timeline is cut to its newest sample's
    # replica: replica 1's burn, never a diff of replica 0 against it.
    samples = journal.snapshots(HTTP_CAMPAIGN_ID)
    assert window_burns(AVAILABILITY, samples[-4:])["campaign"] == pytest.approx(50.0)
    assert window_burns(AVAILABILITY, samples[-2:]) == {}


def test_top_rate_is_the_sum_of_per_slot_rates(journal, fleet):
    samples = journal.snapshots(HTTP_CAMPAIGN_ID)
    per_slot = [_per_slot_rate(samples, slot) for slot in (0, 1)]
    assert per_slot == [pytest.approx(100.0), pytest.approx(10.0)]
    assert _frame_rate(_frame(journal)) == pytest.approx(sum(per_slot), abs=0.05)
    # The two newest journaled samples belong to different replicas.
    assert sample_rates(samples[-2], samples[-1]) == {}


def test_alert_fold_keeps_the_failing_replica_firing(journal, fleet):
    _clock, _replicas, samplers = fleet
    events = journal.alerts(HTTP_CAMPAIGN_ID)
    availability = [
        (event["slot"], event["state"])
        for event in events
        if event["slo"] == AVAILABILITY.name
    ]
    # Replica 1 fired and stayed firing; replica 0 fired on its blip,
    # then resolved — after replica 1's firing event was journaled.
    assert availability == [(1, "firing"), (0, "firing"), (0, "resolved")]
    assert [a.subject for a in samplers[1].evaluator.firing()] == ["campaign"]
    assert samplers[0].evaluator.firing() == []

    text = render_alerts(events)
    assert "1 firing" in text and "2 tracked" in text
    assert re.search(r"FIRING\s+http-availability\s+campaign @replica 1", text)
    assert re.search(r"RESOLVED\s+http-availability\s+campaign @replica 0", text)
    firing_only = render_alerts(events, firing_only=True)
    assert "@replica 1" in firing_only and "@replica 0" not in firing_only

    frame = _frame(journal)
    assert "alerts     1 firing / 2 tracked" in frame
    assert re.search(r"FIRING\s+http-availability\s+campaign @replica 1", frame)


def test_restarted_replica_starts_a_new_run(journal, fleet):
    clock, replicas, samplers = fleet
    # Replica 0's process restarts: counters and clock begin afresh.
    replicas[0] = Replica()
    restarted = _sampler(journal, 0, replicas[0], clock)
    assert restarted.run == 1
    assert samplers[1].run == 0
    for round_ in range(3):
        replicas[0].serve(40, 0)
        restarted.sample()
        samples = journal.snapshots(HTTP_CAMPAIGN_ID)
        rate = _frame_rate(_frame(journal))
        assert rate >= 0.0
        if round_ == 0:
            # Replica 0's two newest samples straddle the restart: it
            # contributes no rate until its new run has two samples.
            assert rate == pytest.approx(_per_slot_rate(samples, 1), abs=0.05)
            assert sample_rates(*_slot_samples(samples, 0)[-2:]) == {}
        clock.now += 0.5
        replicas[1].serve(10, 5)
        samplers[1].sample()
        clock.now += 0.5
    samples = journal.snapshots(HTTP_CAMPAIGN_ID)
    assert [s["run"] for s in _slot_samples(samples, 0)] == [0] * 6 + [1] * 3
    assert _frame_rate(_frame(journal)) == pytest.approx(40.0 + 10.0, abs=0.05)
    ring = rebuild_ring(journal, HTTP_CAMPAIGN_ID, slot=0)
    burns = window_burns(AVAILABILITY, ring.window(AVAILABILITY.slow_window))
    assert burns["campaign"] == pytest.approx(0.0)
    # The restarted process's own evaluator never saw the old run.
    assert restarted.evaluator.firing() == []


# ----------------------------------------------------------------------
# Timelines journaled before samples carried a slot.

def _legacy_fleet_samples() -> "list[dict]":
    """What the old per-replica HTTP sampler journaled: ``replica``
    instead of ``slot``, and every replica on run 0."""
    replicas = [Replica(), Replica()]
    samples = []
    for round_ in range(4):
        replicas[0].serve(100, 0)
        replicas[1].serve(10, 5)
        for index, replica in enumerate(replicas):
            samples.append(
                {
                    "seq": round_,
                    "run": 0,
                    "t_ms": 1000.0 * round_,
                    "replica": index,
                    **http_sample(replica.snapshot()),
                }
            )
    return samples


def test_legacy_replica_keyed_samples_read_per_replica(journal):
    for sample in _legacy_fleet_samples():
        journal.record_snapshot(HTTP_CAMPAIGN_ID, sample["t_ms"], sample)
    burns = [
        window_burns(
            AVAILABILITY,
            rebuild_ring(journal, HTTP_CAMPAIGN_ID, slot=slot).window(3),
        )["campaign"]
        for slot in (0, 1)
    ]
    assert burns == [pytest.approx(0.0), pytest.approx(50.0)]
    assert _frame_rate(_frame(journal)) == pytest.approx(110.0, abs=0.05)
    # A replica starting on that timeline opens a new run of its slot.
    assert _sampler(journal, 1, Replica(), Clock()).run == 1


def test_legacy_slotless_samples_and_alerts_read(tmp_path):
    db = tmp_path / "old.sqlite"
    # An alert table from before events carried a slot.
    connection = sqlite3.connect(db)
    connection.executescript(
        """
        CREATE TABLE campaign_alerts (
            alert_seq INTEGER PRIMARY KEY AUTOINCREMENT,
            campaign_id TEXT NOT NULL,
            slo TEXT NOT NULL,
            kind TEXT NOT NULL,
            subject TEXT NOT NULL,
            state TEXT NOT NULL CHECK (state IN ('firing', 'resolved')),
            t_ms REAL NOT NULL,
            detail TEXT NOT NULL
        );
        INSERT INTO campaign_alerts
            (campaign_id, slo, kind, subject, state, t_ms, detail)
        VALUES ('http-server', 'http-availability', 'availability',
                'campaign', 'firing', 2000.0, 'burn');
        """
    )
    connection.commit()
    connection.close()
    journal = CampaignJournal(db)
    try:
        journal.create(HTTP_CAMPAIGN_ID, 7, [], config={"kind": "http-server"})
        replica = Replica()
        for seq in range(3):
            replica.serve(20, 0)
            sample = {
                "seq": seq,
                "run": 0,
                "t_ms": 1000.0 * seq,
                **http_sample(replica.snapshot()),
            }
            journal.record_snapshot(HTTP_CAMPAIGN_ID, sample["t_ms"], sample)
        events = journal.alerts(HTTP_CAMPAIGN_ID)
        assert events == [
            {
                "slo": "http-availability",
                "kind": "availability",
                "subject": "campaign",
                "state": "firing",
                "t_ms": 2000.0,
                "detail": "burn",
            }
        ]
        assert "1 firing" in render_alerts(events)
        ring = rebuild_ring(journal, HTTP_CAMPAIGN_ID)
        assert len(ring) == 3
        assert window_burns(AVAILABILITY, ring.window(3))["campaign"] == 0.0
        frame = _frame(journal)
        assert _frame_rate(frame) == pytest.approx(20.0, abs=0.05)
        assert re.search(r"FIRING\s+http-availability\s+campaign\s", frame)
        # A standalone server restarting on it opens run 1, slotless.
        restarted = _sampler(journal, None, replica, Clock())
        assert restarted.run == 1
        assert "slot" not in restarted.sample()
    finally:
        journal.close()


# ----------------------------------------------------------------------
# The panels of `repro-cli top` fold each slot's newest sample.

def test_top_panels_sum_each_slots_newest_counters(journal):
    clock = Clock()
    replicas = [Replica(), Replica()]
    samplers = [_sampler(journal, slot, replicas[slot], clock) for slot in (0, 1)]
    replicas[0].serve(300, 0)
    samplers[0].sample()
    clock.now += 1.0
    replicas[1].serve(30, 15)
    samplers[1].sample()
    frame = _frame(journal)
    assert "calls      330 total, 315 ok" in frame
    assert "330 requests (315 2xx, 0 4xx, 15 5xx)" in frame
    assert "over 330 calls" in frame
    # One slot alone reads its newest sample as it is.
    samplers[1].sample()
    alone = Dashboard(journal, HTTP_CAMPAIGN_ID, stream=io.StringIO())
    assert "330 requests" in alone.frame()


def test_fold_of_one_slot_is_its_newest_sample(journal, fleet):
    from repro.obs.dashboard import fold_newest

    samples = _slot_samples(journal.snapshots(HTTP_CAMPAIGN_ID), 1)
    assert fold_newest(samples) is samples[-1]
    assert fold_newest([]) is None


# ----------------------------------------------------------------------
# A sampler finds its slot's next run without reading the timeline.

def _decoded_next_run(journal, slot) -> int:
    """The rule applied by decoding every journaled sample."""
    from repro.obs.timeseries import by_slot

    journaled = by_slot(journal.snapshots(HTTP_CAMPAIGN_ID)).get(slot, [])
    return max((sample.get("run", 0) for sample in journaled), default=-1) + 1


def _mixed_timeline(journal) -> None:
    """Every shape a timeline holds: slot-keyed samples of two runs,
    older replica-keyed fleet samples, slotless and run-less samples,
    and another campaign's samples that must not count."""
    shapes = [
        {"slot": 0, "run": 0}, {"slot": 0, "run": 2}, {"slot": 0, "run": 1},
        {"slot": 1, "run": 0},
        {"replica": 1, "run": 4}, {"replica": 3, "run": 0},
        {"run": 5}, {},
        {"slot": 2, "p95_ms": float("nan")},  # not strict JSON: NaN
    ]
    for index, shape in enumerate(shapes):
        journal.record_snapshot(HTTP_CAMPAIGN_ID, float(index), {"seq": index, **shape})
    journal.record_snapshot("other", 0.0, {"slot": 0, "run": 9})
    journal.record_snapshot("other", 0.0, {"run": 9})


def test_next_run_agrees_with_decoding_the_timeline(journal):
    _mixed_timeline(journal)
    expected = {slot: _decoded_next_run(journal, slot) for slot in (None, 0, 1, 2, 3, 4)}
    assert expected == {None: 6, 0: 3, 1: 5, 2: 1, 3: 1, 4: 0}
    for slot, run in expected.items():
        assert _sampler(journal, slot, Replica(), Clock()).run == run


def test_sampler_on_a_large_journal_does_not_decode_the_timeline(journal, monkeypatch):
    import json

    _mixed_timeline(journal)
    replica = Replica()
    for seq in range(2000):
        replica.serve(1, 0)
        sample = {"seq": seq, "run": seq // 500, "t_ms": float(seq), "slot": seq % 2,
                  **http_sample(replica.snapshot())}
        journal.record_snapshot(HTTP_CAMPAIGN_ID, sample["t_ms"], sample)
    expected = {slot: _decoded_next_run(journal, slot) for slot in (None, 0, 1, 2)}

    def refuse(*args, **kwargs):
        raise AssertionError("the timeline was decoded")

    monkeypatch.setattr(journal, "snapshots", refuse)
    monkeypatch.setattr(json, "loads", refuse)
    for slot, run in expected.items():
        assert _sampler(journal, slot, Replica(), Clock()).run == run
    assert (expected[0], expected[1]) == (4, 5)  # slot 1 also has replica-keyed run 4


def test_journal_from_before_the_sample_columns_gains_them(tmp_path):
    import json

    db = tmp_path / "old.sqlite"
    connection = sqlite3.connect(db)
    connection.executescript(
        """
        CREATE TABLE campaign_snapshots (
            snap_seq INTEGER PRIMARY KEY AUTOINCREMENT,
            campaign_id TEXT NOT NULL,
            t_ms REAL NOT NULL,
            snapshot_json TEXT NOT NULL
        );
        """
    )
    old_samples = [
        {"replica": 1, "run": 0}, {"replica": 1, "run": 3}, {"slot": 0, "run": 2},
        {"run": 1, "max_ms": float("inf")}, {},
    ]
    connection.executemany(
        "INSERT INTO campaign_snapshots (campaign_id, t_ms, snapshot_json) VALUES (?, 0, ?)",
        [(HTTP_CAMPAIGN_ID, json.dumps(sample)) for sample in old_samples],
    )
    connection.commit()
    connection.close()
    journal = CampaignJournal(db)
    try:
        expected = {slot: _decoded_next_run(journal, slot) for slot in (None, 0, 1, 2)}
        assert expected == {None: 2, 0: 3, 1: 4, 2: 0}
        for slot, run in expected.items():
            assert _sampler(journal, slot, Replica(), Clock()).run == run
        assert journal.snapshots(HTTP_CAMPAIGN_ID)[:5] == old_samples
    finally:
        journal.close()
