"""Tests of the sharding primitives: the deterministic shard plan, the
idempotent journal merge (including its edge cases — zero-row shard
journals, duplicate rows from a restarted worker, a merge killed and
re-run), planned-order assembly, and the read-only worker views."""

from __future__ import annotations

import sqlite3

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignJournal,
    CampaignRunner,
    assemble_result,
    merge_shard_journal,
    merged_worker_stats,
    render_campaign_report,
    shard_campaign_id,
    shard_journal_path,
    shard_plan,
    worker_rows,
)
from repro.campaign.sharding import shard_status
from repro.processlog import SHARD_WORKER

LIMIT = 4


@pytest.fixture(scope="module")
def serial_result(ctx, catalog, pool, tmp_path_factory):
    """A small serial campaign whose reports seed the merge tests."""
    path = tmp_path_factory.mktemp("sharding") / "serial.sqlite"
    journal = CampaignJournal(path)
    try:
        runner = CampaignRunner(
            ctx, catalog, pool, journal, CampaignConfig(limit=LIMIT)
        )
        result = runner.run("serial")
    finally:
        journal.close()
    return result


# ----------------------------------------------------------------------
# The shard plan
# ----------------------------------------------------------------------
class TestShardPlan:
    def test_round_robin(self):
        assert shard_plan(["a", "b", "c", "d", "e"], 2) == [
            ["a", "c", "e"],
            ["b", "d"],
        ]

    def test_deterministic(self):
        ids = [f"m{i}" for i in range(17)]
        assert shard_plan(ids, 5) == shard_plan(ids, 5)

    def test_partitions_exactly(self):
        ids = [f"m{i}" for i in range(11)]
        shards = shard_plan(ids, 3)
        flattened = sorted(module_id for shard in shards for module_id in shard)
        assert flattened == sorted(ids)

    def test_more_shards_than_modules_leaves_empty_shards(self):
        shards = shard_plan(["a"], 4)
        assert shards == [["a"], [], [], []]

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(ValueError):
            shard_plan(["a"], 0)

    def test_derived_names(self):
        assert shard_journal_path("/x/c.db", 3) == "/x/c.db.shard-03"
        assert shard_campaign_id("nightly", 0) == "nightly::shard-00"


# ----------------------------------------------------------------------
# The merge
# ----------------------------------------------------------------------
def _seed_main(tmp_path, result, name="merged"):
    """A main journal with the campaign row but no entries yet."""
    journal = CampaignJournal(tmp_path / f"{name}.sqlite")
    journal.create(result.campaign_id, result.seed, list(result.reports), {})
    return journal


def _write_shard(tmp_path, main_path_name, shard, cid, reports):
    """A shard journal holding ``reports`` as done entries."""
    path = shard_journal_path(tmp_path / main_path_name, shard)
    shard_journal = CampaignJournal(path)
    try:
        shard_cid = shard_campaign_id(cid, shard)
        shard_journal.create(shard_cid, 2014, [r.module_id for r in reports], {})
        for report in reports:
            shard_journal.record_done(shard_cid, report)
    finally:
        shard_journal.close()
    return path


class TestMerge:
    def test_missing_shard_file_contributes_nothing(self, tmp_path, serial_result):
        main = _seed_main(tmp_path, serial_result)
        try:
            copied = merge_shard_journal(
                main,
                serial_result.campaign_id,
                tmp_path / "merged.sqlite.shard-07",
                shard_campaign_id(serial_result.campaign_id, 7),
            )
            assert copied == 0
            assert main.entries(serial_result.campaign_id) == {}
        finally:
            main.close()

    def test_zero_row_shard_journal_contributes_nothing(
        self, tmp_path, serial_result
    ):
        main = _seed_main(tmp_path, serial_result)
        path = _write_shard(
            tmp_path, "merged.sqlite", 0, serial_result.campaign_id, []
        )
        try:
            copied = merge_shard_journal(
                main,
                serial_result.campaign_id,
                path,
                shard_campaign_id(serial_result.campaign_id, 0),
            )
            assert copied == 0
            assert main.entries(serial_result.campaign_id) == {}
        finally:
            main.close()

    def test_shard_file_without_campaign_row_contributes_nothing(
        self, tmp_path, serial_result
    ):
        # The worker created the SQLite file (schema committed) but died
        # before its campaign row landed.
        path = shard_journal_path(tmp_path / "merged.sqlite", 1)
        CampaignJournal(path).close()
        main = _seed_main(tmp_path, serial_result)
        try:
            copied = merge_shard_journal(
                main,
                serial_result.campaign_id,
                path,
                shard_campaign_id(serial_result.campaign_id, 1),
            )
            assert copied == 0
        finally:
            main.close()

    def test_duplicate_merge_is_idempotent(self, tmp_path, serial_result):
        reports = list(serial_result.reports.values())
        plan = shard_plan([r.module_id for r in reports], 2)
        by_id = {r.module_id: r for r in reports}
        main = _seed_main(tmp_path, serial_result)
        try:
            for shard, ids in enumerate(plan):
                path = _write_shard(
                    tmp_path,
                    "merged.sqlite",
                    shard,
                    serial_result.campaign_id,
                    [by_id[module_id] for module_id in ids],
                )
                cid = shard_campaign_id(serial_result.campaign_id, shard)
                # Merge the same shard twice — a restarted worker's
                # duplicate rows and a re-run merge land identically.
                first = merge_shard_journal(
                    main, serial_result.campaign_id, path, cid
                )
                second = merge_shard_journal(
                    main, serial_result.campaign_id, path, cid
                )
                assert first == second == len(ids)
            assembled = assemble_result(main, serial_result.campaign_id)
        finally:
            main.close()
        assert assembled.digest() == serial_result.digest()
        assert render_campaign_report(assembled) == render_campaign_report(
            serial_result
        )

    def test_interrupted_merge_rerun_converges(self, tmp_path, serial_result):
        """A merge that died after copying only one shard re-runs to the
        same table (the supervisor-SIGKILL-mid-merge shape)."""
        reports = list(serial_result.reports.values())
        plan = shard_plan([r.module_id for r in reports], 2)
        by_id = {r.module_id: r for r in reports}
        paths = [
            _write_shard(
                tmp_path,
                "merged.sqlite",
                shard,
                serial_result.campaign_id,
                [by_id[module_id] for module_id in ids],
            )
            for shard, ids in enumerate(plan)
        ]
        main = _seed_main(tmp_path, serial_result)
        try:
            # First attempt: only shard 0 merged before the "crash".
            merge_shard_journal(
                main,
                serial_result.campaign_id,
                paths[0],
                shard_campaign_id(serial_result.campaign_id, 0),
            )
            assert len(main.entries(serial_result.campaign_id)) == len(plan[0])
        finally:
            main.close()
        # The resumed merge re-merges everything from scratch.
        main = CampaignJournal(tmp_path / "merged.sqlite")
        try:
            for shard, path in enumerate(paths):
                merge_shard_journal(
                    main,
                    serial_result.campaign_id,
                    path,
                    shard_campaign_id(serial_result.campaign_id, shard),
                )
            assembled = assemble_result(main, serial_result.campaign_id)
        finally:
            main.close()
        assert assembled.digest() == serial_result.digest()

    def test_assemble_marks_missing_modules_never_attempted(
        self, tmp_path, serial_result
    ):
        main = _seed_main(tmp_path, serial_result)
        try:
            reports = list(serial_result.reports.values())
            main.record_done(serial_result.campaign_id, reports[0])
            assembled = assemble_result(main, serial_result.campaign_id)
        finally:
            main.close()
        assert assembled.status == "degraded"
        assert set(assembled.reports) == {reports[0].module_id}
        assert all(
            detail == "never attempted" for detail in assembled.skipped.values()
        )


# ----------------------------------------------------------------------
# Worker lifecycle rows in the journal
# ----------------------------------------------------------------------
class TestWorkerJournal:
    def test_worker_events_keep_recording_order(self, tmp_path):
        journal = CampaignJournal(tmp_path / "events.sqlite")
        try:
            journal.create("c", 1, ["m"], {})
            log = journal.processes
            log.record_event(SHARD_WORKER, "c", 0, "spawn", worker=0)
            log.record_event(
                SHARD_WORKER, "c", 0, "crash", "exit code 137", worker=0
            )
            log.record_event(SHARD_WORKER, "c", 0, "restart", worker=1)
            events = journal.worker_events("c")
        finally:
            journal.close()
        assert [e["kind"] for e in events] == ["spawn", "crash", "restart"]
        assert events[1]["detail"] == "exit code 137"
        assert events[2]["worker"] == 1

    def test_shard_status_upserts(self, tmp_path):
        db = tmp_path / "status.sqlite"
        journal = CampaignJournal(shard_journal_path(db, 0))
        try:
            cid = shard_campaign_id("c", 0)
            journal.create(cid, 1, ["m"], {})
            journal.processes.record_status(
                SHARD_WORKER, cid, 0, worker=0, pid=100, attempt=1, work=3,
                phase="running", started_wall=0.0,
                stats={"counters": {"calls": 3}},
            )
            journal.processes.record_status(
                SHARD_WORKER, cid, 0, worker=2, pid=200, attempt=2, work=7,
                phase="done", started_wall=0.0,
                stats={"counters": {"calls": 7}},
            )
            status = shard_status(db, "c", 0)
            assert shard_status(db, "c", 9) is None
        finally:
            journal.close()
        assert status["worker"] == 2
        assert status["pid"] == 200
        assert status["attempt"] == 2
        assert status["invocations"] == 7
        assert status["phase"] == "done"
        assert status["stats"] == {"counters": {"calls": 7}}


class TestWorkerRows:
    def test_pending_rows_before_any_heartbeat(self, tmp_path):
        db = tmp_path / "fleet.sqlite"
        journal = CampaignJournal(db)
        try:
            journal.create(
                "c", 1, ["m1", "m2", "m3"], {"workers": 2, "heartbeat_timeout": 5.0}
            )
        finally:
            journal.close()
        rows = worker_rows(db, "c", now=100.0)
        assert [row["phase"] for row in rows] == ["pending", "pending"]
        assert [row["n_planned"] for row in rows] == [2, 1]
        assert all(not row["alive"] for row in rows)
        assert [shard_status(db, "c", shard) for shard in range(2)] == [
            None, None,
        ]

    def test_schema_less_shard_journal_is_read_without_writing(self, tmp_path):
        # A worker killed before its schema committed leaves a shard
        # file with no tables; refreshing the rows must not create them.
        db = tmp_path / "fleet.sqlite"
        journal = CampaignJournal(db)
        try:
            journal.create(
                "c", 1, ["m1", "m2"], {"workers": 2, "heartbeat_timeout": 5.0}
            )
        finally:
            journal.close()
        shard0 = shard_journal_path(db, 0)
        sqlite3.connect(shard0).close()
        rows = worker_rows(db, "c", now=100.0)
        assert (rows[0]["n_done"], rows[0]["n_skipped"]) == (0, 0)
        connection = sqlite3.connect(shard0)
        try:
            tables = connection.execute(
                "SELECT name FROM sqlite_master"
            ).fetchall()
        finally:
            connection.close()
        assert tables == []

    def test_rows_fold_heartbeats_and_events(self, tmp_path):
        db = tmp_path / "fleet.sqlite"
        journal = CampaignJournal(db)
        try:
            journal.create(
                "c", 1, ["m1", "m2"], {"workers": 2, "heartbeat_timeout": 5.0}
            )
            log = journal.processes
            log.record_event(SHARD_WORKER, "c", 0, "spawn", worker=0)
            log.record_event(SHARD_WORKER, "c", 0, "restart", worker=2)
            log.record_event(SHARD_WORKER, "c", 0, "shard-degraded", worker=2)
        finally:
            journal.close()
        shard0 = CampaignJournal(shard_journal_path(db, 0))
        try:
            cid = shard_campaign_id("c", 0)
            shard0.create(cid, 1, ["m1"], {})
            shard0.processes.record_status(
                SHARD_WORKER, cid, 0, worker=2, pid=42, attempt=2, work=5,
                phase="running", started_wall=90.0,
                stats={"counters": {"calls": 5}}, heartbeat_wall=99.0,
            )
        finally:
            shard0.close()
        rows = worker_rows(db, "c", now=100.0)
        assert rows[0]["restarts"] == 1
        assert rows[0]["phase"] == "degraded"  # event overrides heartbeat
        assert rows[0]["heartbeat_age"] == pytest.approx(1.0)
        assert not rows[0]["alive"]
        assert rows[1]["phase"] == "pending"
        merged = merged_worker_stats(rows)
        assert merged["counters"]["calls"] == 5
