"""Journaled index builds: checkpoint, resume, config conflicts."""

import pytest

from repro.campaign.journal import COMPLETE, CampaignJournal, UnknownCampaignError
from repro.match import (
    IndexBuilder,
    SignatureConfig,
    build_synthetic_catalog,
    entry_from_record,
    entry_to_record,
    load_index,
)
from repro.match.synth import SyntheticCatalogConfig


@pytest.fixture(scope="module")
def world():
    return build_synthetic_catalog(SyntheticCatalogConfig(n_modules=24))


@pytest.fixture
def journal(tmp_path):
    return CampaignJournal(tmp_path / "match.sqlite")


class TestRecordRoundTrip:
    def test_entry_survives_serialization(self, world, journal):
        builder = IndexBuilder(journal)
        index = builder.build(world.modules, world.examples_by_id)
        for module_id in index.module_ids():
            entry = index.entry(module_id)
            again = entry_from_record(entry_to_record(entry))
            assert again == entry

    def test_old_records_without_input_tokens_load(self):
        record = {
            "module_id": "m",
            "shape": [1, 1],
            "values": [1, 2, 3, 4],
            "n_tokens": 2,
            "tokens": [10, 20],
        }
        entry = entry_from_record(record)
        assert entry.input_tokens == frozenset()


class TestBuildAndResume:
    def test_build_journals_every_signature(self, world, journal):
        builder = IndexBuilder(journal)
        index = builder.build(world.modules, world.examples_by_id)
        assert len(index) == len(world.modules)
        assert len(journal.signatures("match-index")) == len(world.modules)
        assert journal.meta("match-index").status == COMPLETE

    def test_resume_sketches_only_the_remainder(self, world, journal):
        first = IndexBuilder(journal)
        first.build(world.modules[:10], world.examples_by_id)

        sketched = []
        second = IndexBuilder(journal)
        index = second.build(
            world.modules,
            world.examples_by_id,
            progress=lambda done, total, module_id: sketched.append(module_id),
        )
        assert len(index) == len(world.modules)
        already = {m.module_id for m in world.modules[:10]}
        assert already.isdisjoint(sketched)
        assert len(sketched) == len(world.modules) - 10

    def test_resumed_index_equals_fresh_build(self, world, journal, tmp_path):
        partial = IndexBuilder(journal)
        partial.build(world.modules[:10], world.examples_by_id)
        resumed = IndexBuilder(journal).build(
            world.modules, world.examples_by_id
        )

        fresh_journal = CampaignJournal(tmp_path / "fresh.sqlite")
        fresh = IndexBuilder(fresh_journal).build(
            world.modules, world.examples_by_id
        )
        assert resumed.module_ids() == fresh.module_ids()
        for module_id in fresh.module_ids():
            assert resumed.candidates(module_id) == fresh.candidates(module_id)

    def test_conflicting_config_on_resume_raises(self, world, journal):
        IndexBuilder(journal, config=SignatureConfig(width=32, bands=8)).build(
            world.modules[:4], world.examples_by_id
        )
        conflicting = IndexBuilder(
            journal, config=SignatureConfig(width=64, bands=16)
        )
        with pytest.raises(ValueError, match="journaled"):
            conflicting.build(world.modules, world.examples_by_id)

    def test_resume_without_config_uses_journaled(self, world, journal):
        IndexBuilder(journal, config=SignatureConfig(width=32, bands=8)).build(
            world.modules[:4], world.examples_by_id
        )
        builder = IndexBuilder(journal)
        index = builder.build(world.modules, world.examples_by_id)
        assert builder.config == SignatureConfig(width=32, bands=8)
        assert index.config.width == 32


class TestLoadIndex:
    def test_load_rebuilds_without_examples(self, world, journal):
        built = IndexBuilder(journal).build(world.modules, world.examples_by_id)
        loaded = load_index(journal)
        assert loaded.module_ids() == built.module_ids()
        for module_id in built.module_ids():
            assert loaded.candidates(module_id) == built.candidates(module_id)

    def test_load_unknown_campaign_raises(self, journal):
        with pytest.raises(UnknownCampaignError):
            load_index(journal, "ghost")
