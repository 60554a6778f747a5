"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_global_seed_flag(self):
        args = build_parser().parse_args(["--seed", "7", "list"])
        assert args.seed == 7

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_list_prints_catalog(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "ret.get_uniprot_record" in out
        assert len(out.strip().splitlines()) == 252

    def test_list_category_filter(self, capsys):
        assert main(["list", "--category", "filtering"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 27

    def test_list_interface_filter(self, capsys):
        assert main(["list", "--interface", "rest"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 60

    def test_show_module(self, capsys):
        assert main(["show", "map.link"]) == 0
        out = capsys.readouterr().out
        assert "classes of behavior: 9" in out
        assert "[20 partitions]" in out

    def test_show_unknown_module_exits(self):
        with pytest.raises(SystemExit, match="no module"):
            main(["show", "no.such"])

    def test_annotate_prints_examples(self, capsys):
        assert main(["annotate", "ret.get_uniprot_record"]) == 0
        out = capsys.readouterr().out
        assert "generated 1 data examples" in out
        assert "Data example for ret.get_uniprot_record" in out

    def test_annotate_max_limits_cards(self, capsys):
        assert main(["annotate", "map.link", "--max", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("Data example for") == 2

    def test_match_decayed_module(self, capsys):
        assert main(["match", "candidates", "old.get_kegg_gene_s"]) == 0
        out = capsys.readouterr().out
        assert "equivalent" in out
        assert "ret.get_kegg_gene" in out

    def test_match_incomparable_module_fails(self, capsys):
        assert main(["match", "candidates", "old.identify_report"]) == 1
        assert "no candidate" in capsys.readouterr().out

    def test_match_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["match"])

    def test_suggest(self, capsys):
        assert main(["suggest", "ret.get_uniprot_record", "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 3

    def test_redundancy(self, capsys):
        assert main(["redundancy", "ret.get_protein_record"]) == 0
        out = capsys.readouterr().out
        assert "1 estimated classes (1 redundant)" in out


class TestDescribeCommand:
    def test_describe_legible_module(self, capsys):
        assert main(["describe", "map.uniprot_to_kegg"]) == 0
        out = capsys.readouterr().out
        assert "guessed kind: mapping identifiers" in out
        assert "actual kind:  mapping identifiers" in out

    def test_describe_opaque_module(self, capsys):
        assert main(["describe", "an.get_concept"]) == 0
        out = capsys.readouterr().out
        assert "not identifiable" in out


class TestValidateCommand:
    def test_valid_workflow_file(self, capsys, tmp_path):
        from repro.workflow.io import workflow_to_dict
        from repro.workflow.model import DataLink, Step, Workflow
        import json

        workflow = Workflow(
            "w-cli", "cli demo",
            steps=(Step("a", "map.kegg_to_uniprot"),
                   Step("b", "ret.get_uniprot_record")),
            links=(DataLink("a", "mapped", "b", "id"),),
        )
        path = tmp_path / "wf.json"
        path.write_text(json.dumps(workflow_to_dict(workflow)))
        assert main(["validate", str(path)]) == 0
        assert "w-cli: OK" in capsys.readouterr().out

    def test_invalid_workflow_file(self, capsys, tmp_path):
        from repro.workflow.io import workflow_to_xml
        from repro.workflow.model import Step, Workflow

        workflow = Workflow("w-bad", "bad", (Step("a", "ghost.module"),))
        path = tmp_path / "wf.xml"
        path.write_text(workflow_to_xml(workflow))
        assert main(["validate", str(path)]) == 1
        assert "unknown module" in capsys.readouterr().out

    def test_decayed_workflow_needs_flag(self, capsys, tmp_path):
        from repro.workflow.io import workflow_to_xml
        from repro.workflow.model import Step, Workflow

        workflow = Workflow("w-old", "old", (Step("a", "old.get_kegg_gene_s"),))
        path = tmp_path / "wf.xml"
        path.write_text(workflow_to_xml(workflow))
        assert main(["validate", str(path)]) == 1
        assert main(["validate", "--include-decayed", str(path)]) == 0


class TestEngineStats:
    def test_engine_stats_reports_cache_hits(self, capsys):
        assert main(["engine-stats", "--limit", "15", "--repeat", "2"]) == 0
        out = capsys.readouterr().out
        assert "15 modules x 2 pass(es)" in out
        assert "Invocation engine — cost accounting" in out
        assert "cache:           15 hits" in out

    def test_engine_stats_parallel_with_faults(self, capsys):
        assert main([
            "engine-stats", "--limit", "10", "--repeat", "1",
            "--parallelism", "4", "--fault-rate", "0.3",
        ]) == 0
        out = capsys.readouterr().out
        assert "parallelism 4" in out

    def test_engine_stats_cache_disabled(self, capsys):
        assert main([
            "engine-stats", "--limit", "5", "--repeat", "2", "--cache-size", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "cache:           0 hits" in out


class TestEngineStatsJson:
    def test_json_output_is_parseable(self, capsys):
        import json

        assert main(["engine-stats", "--limit", "5", "--repeat", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["modules"] == 5
        assert payload["passes"] == 1
        assert "cache" in payload["stats"]
        assert "health" in payload["stats"]

    def test_module_filter(self, capsys):
        import json

        assert main([
            "engine-stats", "--module", "ret.get_uniprot_record", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["modules"] == 1

    def test_unknown_module_exits_nonzero(self, capsys):
        assert main(["engine-stats", "--module", "no.such"]) == 2
        assert "no module" in capsys.readouterr().err


class TestCampaignCli:
    def _db(self, tmp_path):
        return str(tmp_path / "campaigns.sqlite")

    def test_run_status_resume_round_trip(self, capsys, tmp_path):
        import json

        db = self._db(tmp_path)
        assert main(["campaign", "run", "c1", "--db", db, "--limit", "4"]) == 0
        run_out = capsys.readouterr().out
        assert "Campaign c1 (seed 2014)" in run_out
        assert "modules annotated: 4/4" in run_out
        assert "status: complete" in run_out

        assert main(["campaign", "status", "c1", "--db", db]) == 0
        status_out = capsys.readouterr().out
        assert "done 4/4" in status_out
        assert "complete" in status_out

        assert main(["campaign", "status", "c1", "--db", db, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_done"] == 4
        assert payload["n_pending"] == 0
        assert payload["status"] == "complete"

        # Resuming a finished campaign re-renders the identical report.
        assert main(["campaign", "resume", "c1", "--db", db]) == 0
        assert capsys.readouterr().out == run_out

    def test_duplicate_campaign_id_exits_nonzero(self, capsys, tmp_path):
        db = self._db(tmp_path)
        assert main(["campaign", "run", "c1", "--db", db, "--limit", "2"]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", "c1", "--db", db, "--limit", "2"]) == 2
        assert "already exists" in capsys.readouterr().err

    def test_unknown_campaign_exits_nonzero(self, capsys, tmp_path):
        from repro.campaign import CampaignJournal

        db = self._db(tmp_path)
        CampaignJournal(db).close()
        assert main(["campaign", "status", "ghost", "--db", db]) == 2
        assert "no campaign 'ghost'" in capsys.readouterr().err
        assert main(["campaign", "resume", "ghost", "--db", db]) == 2
        assert "no campaign 'ghost'" in capsys.readouterr().err

    def test_resume_refuses_the_server_report_store(self, capsys, tmp_path):
        from repro.campaign import CampaignJournal
        from repro.serve.sampling import HTTP_CAMPAIGN_ID

        # The row a fleet leaves: the server's config, registered modules.
        db = self._db(tmp_path)
        journal = CampaignJournal(db)
        journal.create(
            HTTP_CAMPAIGN_ID, 2014, ["ret.get_uniprot_record"],
            config={"kind": "http-server"},
        )
        journal.close()
        assert main(["campaign", "resume", HTTP_CAMPAIGN_ID, "--db", db]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "cannot be resumed" in captured.err
        # Nothing was generated into the server's store.
        journal = CampaignJournal(db)
        try:
            assert journal.progress_counts(HTTP_CAMPAIGN_ID)["n_done"] == 0
        finally:
            journal.close()

    def test_status_without_campaigns(self, capsys, tmp_path):
        import json

        from repro.campaign import CampaignJournal

        db = self._db(tmp_path)
        CampaignJournal(db).close()
        assert main(["campaign", "status", "--db", db]) == 0
        assert "no campaigns" in capsys.readouterr().out
        assert main(["campaign", "status", "--db", db, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    @pytest.mark.parametrize(
        "command",
        [
            ["campaign", "status"],
            ["campaign", "workers", "X"],
            ["alerts", "X"],
            ["top", "X", "--once"],
            ["profile", "--campaign", "X"],
            ["trace", "X"],
        ],
        ids=[
            "campaign-status", "campaign-workers", "alerts", "top", "profile",
            "trace",
        ],
    )
    def test_read_only_commands_create_no_journal(self, capsys, tmp_path, command):
        db = self._db(tmp_path)
        assert main([*command, "--db", db]) == 2
        assert capsys.readouterr().err.strip() == f"error: no journal {db}"
        assert list(tmp_path.iterdir()) == []

    def test_degraded_campaign_renders_manifest(self, capsys, tmp_path):
        db = self._db(tmp_path)
        assert main([
            "campaign", "run", "dark", "--db", db, "--limit", "4",
            "--permanent-blackout", "EBI", "--failure-threshold", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "status: degraded" in out
        assert "Degradation manifest" in out
        assert "coverage impact:  3/4 modules skipped" in out
        assert "provider EBI unreachable (breaker open)" in out
        assert main(["campaign", "status", "dark", "--db", db]) == 0
        status_out = capsys.readouterr().out
        assert "degraded" in status_out
        assert "skipped xf.uniprot_to_fasta" in status_out
