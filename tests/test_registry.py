"""Tests for the module registry and its SQLite persistence."""

import pytest

from repro.core.generation import ExampleGenerator
from repro.modules.model import Category
from repro.registry.registry import ModuleRegistry
from repro.registry.sqlite_store import load_examples, load_registry, save_registry


@pytest.fixture()
def registry(ontology, catalog):
    registry = ModuleRegistry(ontology)
    for module in catalog:
        registry.register(module)
    return registry


@pytest.fixture(scope="module")
def examples(ctx, pool, catalog_by_id):
    generator = ExampleGenerator(ctx, pool)
    return {
        module_id: generator.generate(catalog_by_id[module_id]).examples
        for module_id in ("ret.get_uniprot_record", "map.link", "an.identify")
    }


class TestRegistry:
    def test_register_all_catalog_modules(self, registry):
        assert len(registry) == 252

    def test_register_is_idempotent(self, registry, catalog):
        entry_before = registry.get(catalog[0].module_id)
        registry.register(catalog[0])
        assert registry.get(catalog[0].module_id) is entry_before
        assert len(registry) == 252

    def test_register_rejects_unknown_concept(self, ontology):
        from repro.modules.behavior import BehaviorSpec, Branch, always
        from repro.modules.model import InterfaceKind, Module, Parameter
        from repro.values import STRING, TypedValue

        bad = Module(
            module_id="t.bad", name="Bad", category=Category.FILTERING,
            interface=InterfaceKind.LOCAL_PROGRAM, provider="t",
            inputs=(Parameter("x", STRING, "NotAConcept"),),
            outputs=(Parameter("y", STRING, "KeywordSet"),),
            behavior=BehaviorSpec(
                (Branch("b", always, lambda c, i: {"y": TypedValue("", STRING)}),)
            ),
        )
        registry = ModuleRegistry(ontology)
        with pytest.raises(ValueError, match="unknown concept"):
            registry.register(bad)

    def test_attach_and_fetch_examples(self, registry, examples):
        registry.attach_examples("map.link", examples["map.link"])
        assert len(registry.examples_of("map.link")) == 20
        assert registry.examples_of("never.registered") == []

    def test_attach_to_unregistered_module_raises(self, registry, examples):
        with pytest.raises(KeyError):
            registry.attach_examples("no.such", examples["map.link"])

    def test_by_category(self, registry):
        assert len(registry.by_category(Category.FILTERING)) == 27

    def test_consuming_uses_subsumption(self, registry):
        consumers = {m.module_id for m in registry.consuming("UniProtAccession")}
        assert "ret.get_uniprot_record" in consumers  # exact
        assert "ret.get_protein_record" in consumers  # parent-annotated
        assert "map.link" in consumers  # DatabaseAccession-annotated

    def test_producing_uses_subsumption(self, registry):
        producers = {m.module_id for m in registry.producing("ProteinAccession")}
        assert "map.kegg_to_uniprot" in producers  # emits the sub-concept
        assert "an.identify" in producers  # annotated at the concept

    def test_search_by_name(self, registry):
        hits = registry.search_by_name("kegg")
        assert any(m.module_id == "ret.get_kegg_gene" for m in hits)

    def test_available_modules_excludes_decayed(self, ontology):
        from repro.modules.catalog.decayed import (
            DECAYED_PROVIDERS,
            build_decayed_modules,
        )
        from repro.workflow.decay import shut_down_providers

        decayed = build_decayed_modules()
        registry = ModuleRegistry(ontology)
        for module in decayed:
            registry.register(module)
        shut_down_providers(decayed, DECAYED_PROVIDERS)
        assert registry.available_modules() == []


class TestSqlitePersistence:
    def test_round_trip_examples(self, tmp_path, registry, examples, catalog_by_id):
        registry.attach_examples("map.link", examples["map.link"])
        registry.attach_examples("an.identify", examples["an.identify"])
        path = tmp_path / "registry.db"
        save_registry(registry, path)
        restored = load_examples(path)
        assert len(restored["map.link"]) == 20
        original = examples["map.link"][0]
        loaded = restored["map.link"][0]
        assert loaded.inputs[0].value.payload == original.inputs[0].value.payload
        assert loaded.inputs[0].partition == original.inputs[0].partition
        assert loaded.outputs[0].value.payload == original.outputs[0].value.payload

    def test_list_payloads_survive_round_trip(self, tmp_path, registry, examples):
        registry.attach_examples("an.identify", examples["an.identify"])
        save_registry(registry, tmp_path / "r.db")
        restored = load_examples(tmp_path / "r.db")
        [masses] = [
            b.value for b in restored["an.identify"][0].inputs if b.parameter == "masses"
        ]
        assert isinstance(masses.payload, tuple)
        assert masses.structural.is_list

    def test_load_registry_rebinds_live_modules(
        self, tmp_path, registry, examples, catalog_by_id, ontology
    ):
        registry.attach_examples("map.link", examples["map.link"])
        path = tmp_path / "r.db"
        save_registry(registry, path)
        fresh = ModuleRegistry(ontology)
        restored = load_registry(path, fresh, dict(catalog_by_id))
        assert restored == 252
        assert len(fresh.examples_of("map.link")) == 20

    def test_load_registry_skips_dead_modules(
        self, tmp_path, registry, ontology, catalog_by_id
    ):
        path = tmp_path / "r.db"
        save_registry(registry, path)
        live = {k: v for k, v in catalog_by_id.items() if k != "map.link"}
        fresh = ModuleRegistry(ontology)
        assert load_registry(path, fresh, live) == 251
        assert "map.link" not in fresh

    def test_save_is_overwrite_safe(self, tmp_path, registry):
        path = tmp_path / "r.db"
        save_registry(registry, path)
        save_registry(registry, path)  # second save must not duplicate
        import sqlite3

        connection = sqlite3.connect(path)
        try:
            count = connection.execute("SELECT COUNT(*) FROM modules").fetchone()[0]
        finally:
            connection.close()
        assert count == 252
