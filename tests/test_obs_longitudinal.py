"""End-to-end longitudinal observability: a faulted campaign fires
availability burn-rate and behavior-drift alerts that surface in
``repro-cli alerts``, the Prometheus export, the dashboard, and the
decay analysis — and the whole timeline plus alert history reconstructs
from the journal alone after SIGKILL, without disturbing report
byte-identity."""

from __future__ import annotations

import json
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignConfig, CampaignJournal, CampaignRunner
from repro.cli import main
from repro.obs.slo import alert_states, firing_alerts
from repro.workflow.model import Step, Workflow
from repro.workflow.monitoring import analyze_decay, render_decay_report

BASELINE_CONFIG = dict(limit=5, retry_base_delay=0.0, probe_interval=0.01)

FAULTED_CONFIG = dict(
    BASELINE_CONFIG,
    permanent_blackouts=("Manchester-lab",),
    deadline=0.3,
    nondeterministic_providers=("EBI",),
    conformance=False,
    sample_interval=0.0001,
    baseline="base",
)


@pytest.fixture(scope="module")
def faulted_campaign(ctx, catalog, pool, tmp_path_factory):
    """A clean baseline campaign, then a faulted re-run diffed against
    it with sampling and alerting armed."""
    db = tmp_path_factory.mktemp("longitudinal") / "demo.sqlite"
    journal = CampaignJournal(db)
    CampaignRunner(
        ctx, catalog, pool, journal, CampaignConfig(**BASELINE_CONFIG)
    ).run("base")
    runner = CampaignRunner(
        ctx, catalog, pool, journal, CampaignConfig(**FAULTED_CONFIG)
    )
    result = runner.run("faulted")
    yield db, journal, runner, result
    journal.close()


class TestFaultedCampaignAlerts:
    def test_availability_burn_rate_alert_fires(self, faulted_campaign):
        _db, journal, _runner, _result = faulted_campaign
        events = journal.alerts("faulted")
        availability = [
            e for e in firing_alerts(events) if e["kind"] == "availability"
        ]
        assert availability, "dark provider must trip the burn-rate alert"
        assert any(e["subject"] == "Manchester-lab" for e in availability)

    def test_drift_alerts_fire_against_the_baseline(self, faulted_campaign):
        _db, journal, _runner, result = faulted_campaign
        drifted = [r for r in result.drift if r.drifted]
        assert drifted, "nondeterministic provider must drift vs baseline"
        events = journal.alerts("faulted")
        drift_subjects = {
            e["subject"] for e in firing_alerts(events) if e["kind"] == "drift"
        }
        assert {r.module_id for r in drifted} <= drift_subjects | {
            r.module_id for r in result.drift
        }
        assert drift_subjects

    def test_snapshot_timeline_journaled(self, faulted_campaign):
        _db, journal, _runner, _result = faulted_campaign
        snapshots = journal.snapshots("faulted")
        assert len(snapshots) >= 2
        assert snapshots[-1]["progress"]["n_pending"] == 0
        # The baseline campaign, run without sampling, journaled nothing.
        assert journal.snapshots("base") == []

    def test_campaign_report_carries_the_drift_table(self, faulted_campaign):
        from repro.campaign import render_campaign_report

        _db, _journal, runner, result = faulted_campaign
        report = render_campaign_report(result)
        assert "Behavioral drift" in report
        assert "disjoint" in report or "overlapping" in report

    def test_decay_analysis_consumes_the_alert_history(
        self, faulted_campaign, catalog_by_id
    ):
        _db, journal, _runner, result = faulted_campaign
        events = journal.alerts("faulted")
        drifting_module = sorted(
            e["subject"] for e in firing_alerts(events) if e["kind"] == "drift"
        )[0]
        workflows = [
            Workflow("w-drift", "w-drift", (Step("s", drifting_module),)),
            Workflow(
                "w-clean", "w-clean", (Step("s", "an.reverse_complement"),)
            ),
        ]
        report = analyze_decay(workflows, catalog_by_id, alerts=events)
        assert drifting_module in report.drifting
        assert "Manchester-lab" in report.alerting_providers
        assert report.n_broken >= 1
        assert drifting_module in report.by_module
        text = render_decay_report(report)
        assert "drifting" in text and "Manchester-lab" in text

    def test_decay_analysis_without_alerts_sees_nothing(self, catalog_by_id):
        workflows = [Workflow("w", "w", (Step("s", "an.reverse_complement"),))]
        report = analyze_decay(workflows, catalog_by_id)
        assert report.drifting == [] and report.alerting_providers == []


class TestCliSurfaces:
    def test_alerts_subcommand_lists_firing(self, faulted_campaign, capsys):
        db, _journal, _runner, _result = faulted_campaign
        assert main(["alerts", "faulted", "--db", str(db)]) == 0
        out = capsys.readouterr().out
        assert "firing" in out and "FIRING" in out
        assert "availability" in out

    def test_alerts_json_round_trips_the_journal(self, faulted_campaign, capsys):
        db, journal, _runner, _result = faulted_campaign
        assert main(["alerts", "faulted", "--db", str(db), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == journal.alerts("faulted")

    def test_alerts_prometheus_gauges(self, faulted_campaign, capsys):
        db, journal, _runner, _result = faulted_campaign
        assert main(["alerts", "faulted", "--db", str(db), "--prometheus"]) == 0
        out = capsys.readouterr().out
        n_firing = len(firing_alerts(journal.alerts("faulted")))
        assert f"repro_slo_alerts_firing {n_firing}" in out
        assert 'repro_slo_alert_firing{slo="availability"' in out

    def test_top_once_renders_the_dashboard(self, faulted_campaign, capsys):
        db, _journal, _runner, _result = faulted_campaign
        assert main(["top", "faulted", "--db", str(db), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top — campaign faulted" in out
        assert "FIRING" in out

    def test_unknown_campaign_is_a_clean_error(self, faulted_campaign, capsys):
        db, _journal, _runner, _result = faulted_campaign
        assert main(["alerts", "nope", "--db", str(db)]) == 2
        assert main(["top", "nope", "--db", str(db), "--once"]) == 2
        err = capsys.readouterr().err
        assert "no campaign 'nope'" in err


# ----------------------------------------------------------------------
# SIGKILL mid-campaign with sampling + alerting armed: the resumed run's
# report stays byte-identical, and the snapshot timeline + alert history
# reconstruct from the journal alone.
# ----------------------------------------------------------------------
SAMPLED_FLAGS = [
    "--limit", "12",
    "--latency-ms", "15",
    "--blackout", "Manchester-lab",
    "--blackout-calls", "25",
    "--deadline", "60",
    "--failure-threshold", "2",
    "--probe-interval", "0.05",
    "--sample", "0.001",
    "--trace",
]


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


def test_sigkill_preserves_byte_identity_and_reconstructs_timeline(tmp_path):
    root = Path(__file__).resolve().parents[1]
    db = tmp_path / "killed.sqlite"
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "campaign", "run", "obs",
         "--db", str(db), *SAMPLED_FLAGS],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        cwd=root,
        env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    try:
        deadline = time.time() + 120
        while time.time() < deadline:
            done = snaps = alerts = 0
            if db.exists():
                try:
                    conn = sqlite3.connect(db)
                    done = conn.execute(
                        "SELECT COUNT(*) FROM campaign_entries "
                        "WHERE status = 'done'"
                    ).fetchone()[0]
                    snaps = conn.execute(
                        "SELECT COUNT(*) FROM campaign_snapshots"
                    ).fetchone()[0]
                    alerts = conn.execute(
                        "SELECT COUNT(*) FROM campaign_alerts"
                    ).fetchone()[0]
                    conn.close()
                except sqlite3.OperationalError:
                    pass
            if (done >= 2 and snaps >= 2 and alerts >= 1) or (
                victim.poll() is not None
            ):
                break
            time.sleep(0.02)
        else:
            pytest.fail("campaign never journaled progress + snapshots + alerts")
    finally:
        victim.kill()  # SIGKILL — no finalizers, no flush
        victim.wait()

    resumed = _cli("campaign", "resume", "obs", "--db", str(db))
    assert resumed.returncode == 0, resumed.stderr

    reference_db = tmp_path / "reference.sqlite"
    reference = _cli(
        "campaign", "run", "obs", "--db", str(reference_db), *SAMPLED_FLAGS
    )
    assert reference.returncode == 0, reference.stderr
    # Sampling and alerting never feed report reassembly.
    assert resumed.stdout == reference.stdout
    assert "status: complete" in resumed.stdout

    # The timeline reconstructs from the journal alone, with the kill
    # visible as two run segments.
    conn = sqlite3.connect(db)
    rows = conn.execute(
        "SELECT snapshot_json FROM campaign_snapshots "
        "WHERE campaign_id = 'obs' ORDER BY snap_seq"
    ).fetchall()
    conn.close()
    runs = sorted({json.loads(row[0])["run"] for row in rows})
    assert runs == [0, 1]

    # The alert history reconstructs through the CLI with no live state:
    # the blackout left a firing availability transition in the journal
    # (later resolved once the provider recovered).
    alerts = _cli("alerts", "obs", "--db", str(db), "--json")
    assert alerts.returncode == 0, alerts.stderr
    events = json.loads(alerts.stdout)
    assert any(
        e["subject"] == "Manchester-lab"
        and e["kind"] == "availability"
        and e["state"] == "firing"
        for e in events
    ), f"expected a firing availability transition, got {events}"
    assert alert_states(events)  # folds cleanly

    # And the dashboard renders the post-mortem frame from the same file.
    top = _cli("top", "obs", "--db", str(db), "--once")
    assert top.returncode == 0, top.stderr
    assert "campaign obs" in top.stdout
    assert "alerts" in top.stdout
