"""Tests for the data-example generation heuristic (§3.2)."""

import pytest

from repro.core.generation import ExampleGenerator
from repro.core.partitioning import (
    count_partitions,
    module_partitions,
    parameter_partitions,
    realizable_partitions,
)
from repro.modules.model import Parameter
from repro.values import STRING


@pytest.fixture(scope="module")
def generator(ctx, pool):
    return ExampleGenerator(ctx, pool)


class TestPartitioning:
    def test_realizable_partitions_drop_covered_concepts(self, ontology):
        partitions = realizable_partitions(ontology, "ProteinAccession")
        assert "ProteinAccession" not in partitions
        assert set(partitions) == {"UniProtAccession", "PIRAccession"}

    def test_leaf_concept_is_its_own_partition(self, ontology):
        assert realizable_partitions(ontology, "UniProtAccession") == (
            "UniProtAccession",
        )

    def test_depth_cap_limits_descent(self, ontology):
        capped = realizable_partitions(ontology, "BiologicalSequence", max_depth=1)
        assert set(capped) == {
            "BiologicalSequence", "NucleotideSequence", "ProteinSequence",
        }

    def test_depth_zero_keeps_only_realizable_root(self, ontology):
        assert realizable_partitions(ontology, "BiologicalSequence", max_depth=0) == (
            "BiologicalSequence",
        )
        assert realizable_partitions(ontology, "ProteinAccession", max_depth=0) == ()

    def test_parameter_partitions(self, ontology):
        parameter = Parameter("id", STRING, "OrganismIdentifier")
        assert set(parameter_partitions(ontology, parameter)) == {
            "NCBITaxonId", "ScientificOrganismName",
        }

    def test_module_partitions_prefix_sides(self, ontology, catalog_by_id):
        module = catalog_by_id["ret.get_uniprot_record"]
        partitions = module_partitions(ontology, module)
        assert set(partitions) == {"in:id", "out:record"}

    def test_count_partitions(self, ontology, catalog_by_id):
        module = catalog_by_id["ret.get_uniprot_record"]
        assert count_partitions(ontology, module) == 2

    def test_unknown_concept_raises(self, ontology):
        with pytest.raises(KeyError):
            realizable_partitions(ontology, "Nope")


class TestGeneration:
    def test_single_partition_module_gets_one_example(
        self, generator, catalog_by_id
    ):
        report = generator.generate(catalog_by_id["ret.get_uniprot_record"])
        assert report.n_examples == 1
        example = report.examples[0]
        assert example.inputs[0].partition == "UniProtAccession"
        assert example.outputs[0].value.concept == "ProteinSequenceRecord"

    def test_parent_annotated_module_gets_one_example_per_partition(
        self, generator, catalog_by_id
    ):
        report = generator.generate(catalog_by_id["ret.get_protein_record"])
        assert report.n_examples == 2
        partitions = {e.inputs[0].partition for e in report.examples}
        assert partitions == {"UniProtAccession", "PIRAccession"}

    def test_multi_input_module_generates_combinations(
        self, generator, catalog_by_id
    ):
        module = catalog_by_id["an.novelty_score"]  # BiologicalSequence x Organism
        report = generator.generate(module)
        assert report.n_examples == 10  # 5 x 2

    def test_sequence_database_module_covers_eight_schemes(
        self, generator, catalog_by_id
    ):
        report = generator.generate(catalog_by_id["ret.get_biological_sequence"])
        assert report.n_examples == 8
        assert report.invalid_combinations == 0

    def test_link_module_accepts_all_twenty_partitions(
        self, generator, catalog_by_id
    ):
        report = generator.generate(catalog_by_id["map.link"])
        assert report.n_examples == 20
        assert report.invalid_combinations == 0

    def test_selected_values_recorded_per_partition(self, generator, catalog_by_id):
        report = generator.generate(catalog_by_id["ret.get_protein_record"])
        assert set(report.selected["id"]) == {"UniProtAccession", "PIRAccession"}

    def test_examples_record_outputs(self, generator, catalog_by_id):
        report = generator.generate(catalog_by_id["an.translate_dna"])
        example = report.examples[0]
        [result] = [b.value for b in example.outputs if b.parameter == "result"]
        assert result.concept == "ProteinSequence"

    def test_unrealized_partition_reported(self, ctx, catalog_by_id):
        from repro.pool.pool import InstancePool

        empty = InstancePool()
        generator = ExampleGenerator(ctx, empty)
        report = generator.generate(catalog_by_id["ret.get_uniprot_record"])
        assert report.n_examples == 0
        assert ("id", "UniProtAccession") in report.unrealized_partitions

    def test_generate_many_keys_by_module_id(self, generator, catalog_by_id):
        modules = [catalog_by_id["ret.get_uniprot_record"],
                   catalog_by_id["an.translate_dna"]]
        reports = generator.generate_many(modules)
        assert set(reports) == {m.module_id for m in modules}

    def test_generation_is_deterministic(self, ctx, pool, catalog_by_id):
        module = catalog_by_id["map.link"]
        a = ExampleGenerator(ctx, pool).generate(module)
        b = ExampleGenerator(ctx, pool).generate(module)
        assert [e.inputs for e in a.examples] == [e.inputs for e in b.examples]
        assert [
            tuple(o.value.payload for o in e.outputs) for e in a.examples
        ] == [tuple(o.value.payload for o in e.outputs) for e in b.examples]


class TestDepthCapAblation:
    def test_depth_cap_reduces_examples(self, ctx, pool, catalog_by_id):
        module = catalog_by_id["an.sequence_length"]  # BiologicalSequence input
        full = ExampleGenerator(ctx, pool).generate(module)
        capped = ExampleGenerator(ctx, pool, max_depth=0).generate(module)
        assert full.n_examples == 5
        assert capped.n_examples == 1


class TestRandomSelectionAblation:
    def test_random_strategy_draws_k_values(self, ctx, pool, catalog_by_id):
        module = catalog_by_id["ret.get_protein_record"]
        generator = ExampleGenerator(ctx, pool, selection="random", random_k=2)
        report = generator.generate(module)
        assert 1 <= report.n_examples <= 2

    def test_random_strategy_is_seeded(self, ctx, pool, catalog_by_id):
        module = catalog_by_id["map.link"]
        a = ExampleGenerator(ctx, pool, selection="random", seed=5).generate(module)
        b = ExampleGenerator(ctx, pool, selection="random", seed=5).generate(module)
        assert [e.inputs for e in a.examples] == [e.inputs for e in b.examples]

    def test_unknown_strategy_rejected(self, ctx, pool):
        with pytest.raises(ValueError):
            ExampleGenerator(ctx, pool, selection="magic")
