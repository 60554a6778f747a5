"""Tests of the campaign flight recorder: spans journaled per
invocation, reconstruction from the journal alone (a SIGKILLed
campaign included), rendering, and the ``repro-cli trace`` surface."""

from __future__ import annotations

import json
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignConfig, CampaignJournal, CampaignRunner
from repro.campaign import render_campaign_report
from repro.obs import FlightRecorder, Span, load_spans, render_trace
from repro.obs.tracing import LAYERS

BASE = dict(limit=3, retry_base_delay=0.0, probe_interval=0.05)


def make_runner(ctx, catalog, pool, journal, **overrides):
    return CampaignRunner(
        ctx, catalog, pool, journal, CampaignConfig(**{**BASE, **overrides})
    )


@pytest.fixture
def journal(tmp_path):
    journal = CampaignJournal(tmp_path / "journal.sqlite")
    yield journal
    journal.close()


def _span(module_id="m1", start_ms=0.0, duration_ms=1.0, outcome="ok"):
    span = Span("invoke", module_id, start_ms, {"provider": "EBI"})
    span.duration_ms = duration_ms
    span.outcome = outcome
    return span


def _assert_well_formed(data: dict) -> None:
    """One journaled span tree is complete: every node carries the full
    timing record and a known layer name."""
    assert data["name"] in LAYERS
    assert isinstance(data["start_ms"], float)
    assert isinstance(data["duration_ms"], float)
    assert data["duration_ms"] >= 0.0
    assert data["outcome"]
    for child in data.get("children", ()):
        _assert_well_formed(child)


# ----------------------------------------------------------------------
# The sink + reconstruction
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_sink_journals_and_load_spans_round_trips(self, journal):
        journal.create("c1", 1, ["m1"])
        recorder = FlightRecorder(journal, "c1")
        first, second = _span("m1", 0.0), _span("m2", 5.0, outcome="ValueError")
        recorder(first)
        recorder(second)

        assert recorder.recorded == 2
        assert len(journal.processes.spans("c1")) == 2
        assert load_spans(journal, "c1") == [first, second]

    def test_module_filter(self, journal):
        journal.create("c1", 1, ["m1"])
        recorder = FlightRecorder(journal, "c1")
        for module_id in ("m1", "m2", "m1"):
            recorder(_span(module_id))
        filtered = load_spans(journal, "c1", module_id="m1")
        assert [span.module_id for span in filtered] == ["m1", "m1"]


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
class TestRenderTrace:
    def _spans(self):
        spans = [
            _span("mod.cheap", 0.0, 1.0),
            _span("mod.cheap", 2.0, 2.0),
            _span("mod.costly", 5.0, 50.0, outcome="ModuleTimeoutError"),
        ]
        spans[2].detail = "no answer within 0.5s"
        return spans

    def test_header_rollup_and_timeline(self):
        text = render_trace(self._spans(), "c1")
        assert "Flight recorder — campaign c1" in text
        assert "invocations: 3 traced, 1 failed" in text
        # The rollup answers "where did the time go": costly first.
        rollup = text.index("mod.costly")
        assert rollup < text.index("mod.cheap")
        assert "calls=2" in text
        assert "timeline (all of 3 invocations)" in text
        assert "[no answer within 0.5s]" in text

    def test_slowest_selects_by_root_duration(self):
        text = render_trace(self._spans(), "c1", slowest=1)
        trees = text.split("slowest 1 invocations:")[1]
        assert "ModuleTimeoutError" in trees  # the 50ms timeout made the cut
        assert "1.000ms" not in trees  # the cheap calls did not

    def test_limit_keeps_timeline_order(self):
        text = render_trace(self._spans(), "c1", limit=2)
        trees = text.split("timeline (first 2 of 3 invocations):")[1]
        assert "1.000ms" in trees and "2.000ms" in trees
        assert "ModuleTimeoutError" not in trees  # third in timeline order

    def test_empty_campaign_says_so(self):
        text = render_trace([], "c1")
        assert "no spans journaled" in text
        assert "--trace" in text


# ----------------------------------------------------------------------
# A traced campaign, in process
# ----------------------------------------------------------------------
class TestTracedCampaign:
    def test_traced_run_journals_one_span_per_invocation(
        self, ctx, catalog, pool, journal
    ):
        result = make_runner(ctx, catalog, pool, journal, trace=True).run("c1")
        assert journal.meta("c1").status == "complete"

        spans = load_spans(journal, "c1")
        assert len(journal.processes.spans("c1")) == len(spans) > 0
        assert set(span.module_id for span in spans) == set(result.reports)
        for span in spans:
            _assert_well_formed(span.to_dict())
            assert span.name == "invoke"
            assert span.attributes.get("provider")
        # The journal is the single source: reconstruction equals the
        # serialized form exactly.
        assert [span.to_dict() for span in spans] == [span for _, _, span in journal.processes.spans("c1")]

    def test_tracing_does_not_perturb_the_report(self, ctx, catalog, pool, tmp_path):
        reports = []
        for name, trace in (("plain", False), ("traced", True)):
            journal = CampaignJournal(tmp_path / f"{name}.sqlite")
            try:
                result = make_runner(
                    ctx, catalog, pool, journal, trace=trace
                ).run(name)
            finally:
                journal.close()
            reports.append(
                render_campaign_report(result).replace(name, "CID")
            )
        assert reports[0] == reports[1]

    def test_untraced_run_journals_nothing(self, ctx, catalog, pool, journal):
        make_runner(ctx, catalog, pool, journal).run("c1")
        assert len(journal.processes.spans("c1")) == 0
        assert "no spans journaled" in render_trace(load_spans(journal, "c1"), "c1")


# ----------------------------------------------------------------------
# The CLI surface + the SIGKILL acceptance test
# ----------------------------------------------------------------------
def _cli(*args):
    root = Path(__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        cwd=root,
        env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
        timeout=300,
    )


class TestTraceCli:
    def test_unknown_campaign_exits_with_guidance(self, tmp_path, capsys):
        from repro.cli import main

        db = tmp_path / "empty.sqlite"
        CampaignJournal(db).close()
        assert main(["trace", "nope", "--db", str(db)]) == 2
        assert "no campaign 'nope'" in capsys.readouterr().err

    def test_trace_renders_a_journaled_campaign(self, tmp_path, capsys):
        from repro.cli import main

        db = tmp_path / "journal.sqlite"
        run = _cli(
            "campaign", "run", "cli-trace", "--db", str(db), "--limit", "2",
            "--trace",
        )
        assert run.returncode == 0, run.stderr

        assert main(["trace", "cli-trace", "--db", str(db)]) == 0
        out = capsys.readouterr().out
        assert "Flight recorder — campaign cli-trace" in out
        assert "per-module cost" in out

        assert main(["trace", "cli-trace", "--db", str(db), "--json"]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert decoded
        for data in decoded:
            _assert_well_formed(data)


def test_sigkill_leaves_a_reconstructable_timeline(tmp_path):
    """The acceptance measurement: SIGKILL a traced campaign mid-flight;
    ``repro-cli trace`` reconstructs the complete span timeline of
    everything invoked before the kill, from the journal file alone."""
    root = Path(__file__).resolve().parents[1]
    db = tmp_path / "killed.sqlite"
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "campaign", "run", "smoke",
         "--db", str(db), "--limit", "10", "--latency-ms", "10", "--trace"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        cwd=root,
        env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    try:
        # Wait until a few spans are journaled, then kill -9.
        deadline = time.time() + 120
        while time.time() < deadline:
            spans = 0
            if db.exists():
                try:
                    spans = sqlite3.connect(db).execute(
                        "SELECT COUNT(*) FROM process_spans"
                    ).fetchone()[0]
                except sqlite3.OperationalError:
                    spans = 0  # schema not committed yet
            if spans >= 3 or victim.poll() is not None:
                break
            time.sleep(0.02)
        else:
            pytest.fail("campaign never journaled a span")
    finally:
        victim.kill()  # SIGKILL
        victim.wait()

    committed = sqlite3.connect(db).execute(
        "SELECT COUNT(*) FROM process_spans"
    ).fetchone()[0]
    assert committed >= 3

    # Reconstruction needs nothing but the journal file.
    traced = _cli("trace", "smoke", "--db", str(db), "--json")
    assert traced.returncode == 0, traced.stderr
    decoded = json.loads(traced.stdout)
    assert len(decoded) == committed
    starts = []
    for data in decoded:
        _assert_well_formed(data)
        assert data["name"] == "invoke"
        starts.append(data["start_ms"])
    assert starts == sorted(starts)  # recording order is the timeline

    rendered = _cli("trace", "smoke", "--db", str(db), "--slowest", "2")
    assert rendered.returncode == 0, rendered.stderr
    assert f"invocations: {committed} traced" in rendered.stdout
    assert "slowest 2 invocations:" in rendered.stdout

    # Resume finishes the campaign and keeps appending to the same
    # timeline.
    resumed = _cli("campaign", "resume", "smoke", "--db", str(db))
    assert resumed.returncode == 0, resumed.stderr
    assert "status: complete" in resumed.stdout
    after = sqlite3.connect(db).execute(
        "SELECT COUNT(*) FROM process_spans"
    ).fetchone()[0]
    assert after > committed
