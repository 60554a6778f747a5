"""Read-once finalize: a campaign parses each journaled report at most
once per ``run``/``resume`` call.

The journal round trip is exact, so taking the report this process just
committed instead of parsing its row back cannot change a result.  The
runner really does take it — ``report_from_dict`` is counted — while the
journal alone still decides done and skipped.  The sharded merge copies
shard rows without parsing them at all.
"""

from __future__ import annotations

import json
import sqlite3
import sys
import time

import pytest

import repro.campaign.journal as journal_module
from repro.campaign import (
    CampaignConfig,
    CampaignJournal,
    CampaignRunner,
    merge_shard_journal,
    render_campaign_report,
    report_from_dict,
    report_to_dict,
)
from repro.campaign.worker import build_world
from repro.core.generation import ExampleGenerator
from repro.engine import InvocationEngine
from tests.test_campaign import _CrashingJournal, _KilledMidRun

BASE = dict(retry_base_delay=0.0, probe_interval=0.05)

# Weather that leaves quarantine records *and* skip rows in the journal:
# wrong-arity and call-varying providers under a full double-invocation
# probe and an armed watchdog, plus one provider dark for good.
FAULTY = dict(
    BASE,
    limit=24,
    max_attempts=1,
    failure_threshold=2,
    watchdog_budget=0.5,
    probe_rate=1.0,
    corrupt_providers=("Manchester-lab",),
    nondeterministic_providers=("NCBI",),
    permanent_blackouts=("EBI",),
)


def make_runner(ctx, catalog, pool, journal, **overrides):
    return CampaignRunner(
        ctx, catalog, pool, journal, CampaignConfig(**{**BASE, **overrides})
    )


def canonical(report) -> str:
    """The bytes the journal stores for ``report``."""
    return json.dumps(report_to_dict(report), sort_keys=True)


def journal_round_trip(report):
    return report_from_dict(json.loads(canonical(report)))


def has_non_finite(report) -> bool:
    """Whether a payload holds NaN (or ±inf), where dataclass equality
    may not hold (NaN != NaN) and only the JSON bytes are compared."""
    try:
        json.dumps(report_to_dict(report), allow_nan=False)
    except ValueError:
        return True
    return False


def assert_same_report(rebuilt, original) -> bool:
    """Equal canonical bytes always; dataclass-equal unless NaN.

    Returns whether dataclass equality was checked.
    """
    assert canonical(rebuilt) == canonical(original)
    if has_non_finite(original):
        return False
    assert rebuilt == original
    return True


@pytest.fixture
def parse_count(monkeypatch):
    """Counts every ``report_from_dict`` call the journal makes."""
    calls = []
    real = journal_module.report_from_dict

    def counting(data):
        calls.append(data["module_id"])
        return real(data)

    monkeypatch.setattr(journal_module, "report_from_dict", counting)
    return calls


# ----------------------------------------------------------------------
# The journal round trip is exact
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [2014, 7])
def test_every_catalog_report_round_trips(seed):
    ctx, catalog, pool = build_world(seed)
    engine = InvocationEngine(CampaignConfig(seed=seed).engine_config())
    generator = ExampleGenerator(ctx, pool, seed=seed, engine=engine)
    compared = 0
    for module in catalog:
        report = generator.generate(module)
        compared += assert_same_report(journal_round_trip(report), report)
    assert len(catalog) == 252
    assert compared >= len(catalog) - 5  # NaN payloads are the rare case


def test_faulty_campaign_reports_round_trip(ctx, catalog, pool, tmp_path):
    """Held reports equal what parsing the journal gives back, on a
    campaign with quarantine records and skip rows."""
    journal = CampaignJournal(tmp_path / "faulty.sqlite")
    runner = make_runner(ctx, catalog, pool, journal, **FAULTY)
    try:
        result = runner.run("faulty")
        parsed = journal.entries("faulty")
    finally:
        journal.close()
    assert result.status == "degraded"
    assert result.skipped and result.reports
    assert result.quarantined_combinations > 0
    assert {
        module_id: entry.detail
        for module_id, entry in parsed.items()
        if entry.status == "skipped"
    } == result.skipped
    for module_id, report in result.reports.items():
        assert parsed[module_id].status == "done"
        assert_same_report(parsed[module_id].report, report)
        assert_same_report(journal_round_trip(report), report)


# ----------------------------------------------------------------------
# The runner parses each report at most once
# ----------------------------------------------------------------------
def test_fresh_run_parses_no_report(ctx, catalog, pool, tmp_path, parse_count):
    journal = CampaignJournal(tmp_path / "fresh.sqlite")
    try:
        result = make_runner(ctx, catalog, pool, journal, limit=6).run("fresh")
    finally:
        journal.close()
    assert result.status == "complete" and len(result.reports) == 6
    assert parse_count == []


@pytest.mark.parametrize("boundary", [0, 2, 5])
def test_resume_parses_only_reports_done_before_the_kill(
    ctx, catalog, pool, tmp_path, parse_count, boundary
):
    path = tmp_path / "killed.sqlite"
    crashing = _CrashingJournal(path, crash_after=boundary)
    with pytest.raises(_KilledMidRun):
        make_runner(ctx, catalog, pool, crashing, limit=6).run("c")
    crashing.close()
    assert parse_count == []

    journal = CampaignJournal(path)
    try:
        result = make_runner(ctx, catalog, pool, journal, limit=6).resume("c")
        reference = make_runner(ctx, catalog, pool, journal, limit=6).run("ref")
    finally:
        journal.close()
    planned = [module.module_id for module in catalog[:6]]
    assert sorted(parse_count) == sorted(planned[:boundary])
    assert result.status == "complete"
    assert result.digest() == reference.digest()


def test_journal_skip_overrides_a_held_report(
    ctx, catalog, pool, tmp_path, parse_count
):
    """The journal, not the runner's memory, decides done vs skipped."""
    journal = CampaignJournal(tmp_path / "remarked.sqlite")
    runner = make_runner(ctx, catalog, pool, journal, limit=6)
    remarked = catalog[2].module_id
    finalize = runner.finalize

    def remark_then_finalize(campaign_id):
        journal.record_skipped(campaign_id, remarked, "re-marked by operator")
        return finalize(campaign_id)

    runner.finalize = remark_then_finalize
    try:
        result = runner.run("c")
    finally:
        journal.close()
    assert result.status == "degraded"
    assert result.skipped == {remarked: "re-marked by operator"}
    assert remarked not in result.reports and len(result.reports) == 5
    assert parse_count == []


def test_held_reports_do_not_outlive_the_call(
    ctx, catalog, pool, tmp_path, parse_count
):
    """A later ``finalize`` on the same runner parses from the journal."""
    journal = CampaignJournal(tmp_path / "later.sqlite")
    runner = make_runner(ctx, catalog, pool, journal, limit=3)
    try:
        first = runner.run("c")
        assert parse_count == []
        again = runner.finalize("c")
    finally:
        journal.close()
    assert len(parse_count) == 3
    assert render_campaign_report(again) == render_campaign_report(first)


def test_parallel_run_holds_every_report(
    ctx, catalog, pool, tmp_path, parse_count
):
    """Eight scheduler threads switching as often as the interpreter
    allows still hold every committed report, and finalize assembles
    the serial run's digest."""
    journal = CampaignJournal(tmp_path / "parallel.sqlite")
    try:
        serial = make_runner(ctx, catalog, pool, journal).run("serial")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.monotonic()
            parallel = make_runner(
                ctx, catalog, pool, journal, parallelism=8
            ).run("parallel")
            elapsed = time.monotonic() - started
        finally:
            sys.setswitchinterval(interval)
    finally:
        journal.close()
    assert elapsed < 60.0
    assert parse_count == []
    assert parallel.status == "complete"
    assert len(parallel.reports) == len(catalog)
    assert list(parallel.reports) == list(serial.reports)
    assert parallel.digest() == serial.digest()


# ----------------------------------------------------------------------
# The sharded merge copies rows without parsing them
# ----------------------------------------------------------------------
def _entry_rows(path, campaign_id):
    connection = sqlite3.connect(path)
    try:
        return sorted(
            connection.execute(
                "SELECT module_id, status, detail, report_json "
                "FROM campaign_entries WHERE campaign_id = ?",
                (campaign_id,),
            ).fetchall()
        )
    finally:
        connection.close()


def test_shard_merge_copies_rows_verbatim(
    ctx, catalog, pool, tmp_path, parse_count
):
    shard_path = tmp_path / "main.sqlite.shard-00"
    shard = CampaignJournal(shard_path)
    try:
        make_runner(ctx, catalog, pool, shard, limit=4).run("c::shard-00")
        shard.record_skipped("c::shard-00", catalog[4].module_id, "provider dark")
    finally:
        shard.close()
    main = CampaignJournal(tmp_path / "main.sqlite")
    try:
        main.create("c", 2014, [module.module_id for module in catalog[:5]])
        copied = merge_shard_journal(main, "c", shard_path, "c::shard-00")
        again = merge_shard_journal(main, "c", shard_path, "c::shard-00")
    finally:
        main.close()
    assert copied == again == 5
    assert parse_count == []
    assert _entry_rows(tmp_path / "main.sqlite", "c") == _entry_rows(
        shard_path, "c::shard-00"
    )


def test_merge_of_a_shard_file_without_schema(tmp_path):
    """A worker killed between creating its file and committing the
    journal schema leaves an empty file, which contributes nothing."""
    shard_path = tmp_path / "main.sqlite.shard-00"
    shard_path.touch()
    main = CampaignJournal(tmp_path / "main.sqlite")
    try:
        main.create("c", 2014, ["m1"])
        assert merge_shard_journal(main, "c", shard_path, "c::shard-00") == 0
        assert main.statuses("c") == {}
    finally:
        main.close()
