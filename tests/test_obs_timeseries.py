"""Longitudinal sampling: the ring, delta/rate derivation, the campaign
sampler's journaling, and timeline reconstruction from the journal."""

from __future__ import annotations

import pytest

from repro.campaign import CampaignConfig, CampaignJournal, CampaignRunner
from repro.engine import InvocationEngine
from repro.obs.timeseries import (
    Sampler,
    TimeSeriesRing,
    counter_delta,
    latency_over,
    provider_deltas,
    rebuild_ring,
    render_timeline,
    sample_rates,
    take_sample,
)


def make_sample(
    seq=0,
    run=0,
    t_ms=0.0,
    counters=None,
    providers=None,
    latency=None,
    conformance=None,
    progress=None,
):
    """A synthetic sample with the shape :func:`take_sample` produces."""
    return {
        "seq": seq,
        "run": run,
        "t_ms": t_ms,
        "counters": counters or {},
        "latency": latency
        or {"count": 0, "sum_ms": 0.0, "p95_ms": 0.0, "max_ms": 0.0,
            "cumulative_buckets": [["250", 0], ["+Inf", 0]]},
        "breaker": {},
        "health": {"n_modules": 0, "dead_modules": [],
                   "providers": providers or {}},
        "conformance": conformance,
        "progress": progress
        or {"n_planned": 0, "n_done": 0, "n_skipped": 0, "n_pending": 0},
    }


def provider_entry(calls, answered):
    return {
        "calls": calls,
        "answered": answered,
        "timeouts": 0,
        "malformed": 0,
        "modules": 1,
        "dead_modules": 0,
        "availability": answered / calls if calls else 1.0,
    }


# ----------------------------------------------------------------------
class TestRing:
    def test_rejects_degenerate_capacity(self):
        with pytest.raises(ValueError):
            TimeSeriesRing(maxlen=1)

    def test_bounded_with_eviction_accounting(self):
        ring = TimeSeriesRing(maxlen=3)
        for seq in range(5):
            ring.append(make_sample(seq=seq))
        assert len(ring) == 3
        assert ring.dropped_samples == 2
        assert [s["seq"] for s in ring.samples()] == [2, 3, 4]
        assert ring.last()["seq"] == 4

    def test_window_is_trailing_and_clamped(self):
        ring = TimeSeriesRing(maxlen=8)
        for seq in range(4):
            ring.append(make_sample(seq=seq))
        assert [s["seq"] for s in ring.window(2)] == [2, 3]
        assert [s["seq"] for s in ring.window(99)] == [0, 1, 2, 3]
        with pytest.raises(ValueError):
            ring.window(0)

    def test_empty_ring(self):
        ring = TimeSeriesRing()
        assert ring.last() is None
        assert ring.window(3) == []


# ----------------------------------------------------------------------
class TestDeltas:
    def test_counter_delta_defaults_missing_to_zero(self):
        old = make_sample(counters={"calls": 3})
        new = make_sample(counters={"calls": 10, "ok": 4})
        assert counter_delta(old, new, "calls") == 7
        assert counter_delta(old, new, "ok") == 4
        assert counter_delta(old, new, "retries") == 0

    def test_provider_deltas_count_new_providers_from_zero(self):
        old = make_sample(providers={"EBI": provider_entry(4, 4)})
        new = make_sample(
            providers={
                "EBI": provider_entry(10, 9),
                "NCBI": provider_entry(3, 0),
            }
        )
        deltas = provider_deltas(old, new)
        assert deltas["EBI"] == {"calls": 6, "answered": 5}
        assert deltas["NCBI"] == {"calls": 3, "answered": 0}

    def test_latency_over_from_cumulative_buckets(self):
        old = make_sample(
            latency={"count": 10, "sum_ms": 0.0, "p95_ms": 0.0, "max_ms": 0.0,
                     "cumulative_buckets": [["100", 8], ["250", 9], ["+Inf", 10]]}
        )
        new = make_sample(
            latency={"count": 30, "sum_ms": 0.0, "p95_ms": 0.0, "max_ms": 0.0,
                     "cumulative_buckets": [["100", 20], ["250", 24], ["+Inf", 30]]}
        )
        # Window: 20 calls, of which 24-9=15 were <=250ms -> 5 over.
        assert latency_over(old, new, 250.0) == (5, 20)
        # The 100ms objective uses the tighter bucket: 20-(20-8)=8 over.
        assert latency_over(old, new, 100.0) == (8, 20)

    def test_latency_over_empty_window(self):
        sample = make_sample()
        assert latency_over(sample, sample, 250.0) == (0, 0)

    def test_sample_rates(self):
        old = make_sample(
            t_ms=1000.0,
            counters={"calls": 10, "ok": 8, "cache_hits": 2},
            progress={"n_planned": 9, "n_done": 1, "n_skipped": 0, "n_pending": 8},
        )
        new = make_sample(
            t_ms=3000.0,
            counters={"calls": 30, "ok": 20, "cache_hits": 8},
            progress={"n_planned": 9, "n_done": 5, "n_skipped": 0, "n_pending": 4},
        )
        rates = sample_rates(old, new)
        assert rates["elapsed_s"] == pytest.approx(2.0)
        assert rates["calls_per_s"] == pytest.approx(10.0)
        assert rates["ok_per_s"] == pytest.approx(6.0)
        assert rates["done_per_s"] == pytest.approx(2.0)

    def test_sample_rates_refuse_resume_boundary_and_zero_elapsed(self):
        first = make_sample(run=0, t_ms=5000.0)
        resumed = make_sample(run=1, t_ms=10.0)
        assert sample_rates(first, resumed) == {}
        assert sample_rates(first, first) == {}


# ----------------------------------------------------------------------
class TestTakeSample:
    def test_shape_and_progress_derivation(self):
        engine = InvocationEngine()
        sample = {
            "seq": 7,
            "run": 2,
            "t_ms": 12.5,
            **take_sample(engine, {"n_planned": 10, "n_done": 3, "n_skipped": 1}),
        }
        assert sample["seq"] == 7 and sample["run"] == 2
        assert sample["t_ms"] == 12.5
        assert sample["progress"]["n_pending"] == 6
        assert sample["latency"]["cumulative_buckets"][-1][0] == "+Inf"
        assert isinstance(sample["counters"], dict)
        # JSON-compatible: the journal stores it verbatim.
        import json

        json.dumps(sample)


# ----------------------------------------------------------------------
def _run_sampled_campaign(ctx, catalog, pool, db, campaign_id="sampled", **kw):
    journal = CampaignJournal(db)
    config = CampaignConfig(
        limit=3,
        retry_base_delay=0.0,
        probe_interval=0.01,
        sample_interval=0.0001,
        **kw,
    )
    runner = CampaignRunner(ctx, catalog, pool, journal, config)
    result = runner.run(campaign_id)
    return journal, runner, result


class TestCampaignSampler:
    def test_sampler_journals_every_sample(self, ctx, catalog, pool, tmp_path):
        journal, runner, result = _run_sampled_campaign(
            ctx, catalog, pool, tmp_path / "j.sqlite"
        )
        try:
            snapshots = journal.snapshots("sampled")
            assert result.status == "complete"
            assert len(snapshots) >= 2  # initial zero-point + terminal
            assert snapshots == journal.snapshots("sampled")
            assert len(journal.snapshots("sampled")) == len(snapshots)
            # Sequence and run stamps are monotone within the segment.
            assert [s["seq"] for s in snapshots] == list(range(len(snapshots)))
            assert all(s["run"] == 0 for s in snapshots)
            # The terminal sample carries the finalized progress.
            assert snapshots[-1]["progress"]["n_done"] == 3
            assert snapshots[-1]["progress"]["n_pending"] == 0
        finally:
            journal.close()

    def test_resumed_sampler_starts_new_run_segment(self, tmp_path):
        db = tmp_path / "segments.sqlite"
        journal = CampaignJournal(db)
        try:
            journal.create("c", 2014, ["m1"], {})
            engine = InvocationEngine()
            first = Sampler(
                lambda progress: take_sample(engine, progress),
                journal=journal, campaign_id="c",
            )
            first.sample({"n_planned": 1, "n_done": 0, "n_skipped": 0})
            second = Sampler(
                lambda progress: take_sample(engine, progress),
                journal=journal, campaign_id="c",
            )
            assert second.run == 1
            second.sample({"n_planned": 1, "n_done": 1, "n_skipped": 0})
            runs = [s["run"] for s in journal.snapshots("c")]
            assert runs == [0, 1]
        finally:
            journal.close()

    def test_rebuild_ring_reconstructs_trailing_window(self, tmp_path):
        db = tmp_path / "rebuild.sqlite"
        journal = CampaignJournal(db)
        try:
            journal.create("c", 2014, ["m1"], {})
            engine = InvocationEngine()
            sampler = Sampler(
                lambda progress: take_sample(engine, progress),
                journal=journal, campaign_id="c",
            )
            for _ in range(5):
                sampler.sample({"n_planned": 1, "n_done": 0, "n_skipped": 0})
            ring = rebuild_ring(journal, "c", maxlen=3)
            assert len(ring) == 3
            assert [s["seq"] for s in ring.samples()] == [2, 3, 4]
        finally:
            journal.close()

    def test_in_memory_sampler_needs_no_journal(self):
        engine = InvocationEngine()
        sampler = Sampler(lambda progress: take_sample(engine, progress))
        sample = sampler.sample({"n_planned": 2, "n_done": 1, "n_skipped": 0})
        assert sample["progress"]["n_pending"] == 1
        assert len(sampler.ring) == 1


class TestRenderTimeline:
    def test_render_empty_and_elided(self):
        assert "No snapshots" in render_timeline([])
        samples = [
            make_sample(seq=seq, t_ms=seq * 100.0,
                        counters={"calls": seq, "ok": seq},
                        progress={"n_planned": 5, "n_done": seq,
                                  "n_skipped": 0, "n_pending": 5 - seq})
            for seq in range(20)
        ]
        text = render_timeline(samples, limit=4)
        assert "20 samples" in text
        assert "16 earlier samples elided" in text
        assert "done 19/5" in text  # last sample rendered
