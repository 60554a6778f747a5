"""Tests for data-example-driven workflow repair (§6)."""

import pytest

from repro.core.examples import DataExample
from repro.core.generation import ExampleGenerator
from repro.core.matching import MatchKind, find_matches
from repro.core.repair import RepairOutcome, WorkflowRepairer
from repro.modules.catalog.decayed import DECAYED_PROVIDERS, build_decayed_modules
from repro.workflow.decay import shut_down_providers
from repro.workflow.enactment import Enactor
from repro.workflow.model import DataLink, Step, Workflow


@pytest.fixture(scope="module")
def repair_world(ctx, catalog, catalog_by_id, pool):
    """Decayed modules matched against the catalog, then shut down."""
    decayed = build_decayed_modules()
    generator = ExampleGenerator(ctx, pool)
    examples = {m.module_id: generator.generate(m).examples for m in decayed}
    shut_down_providers(decayed, DECAYED_PROVIDERS)
    matches = {
        m.module_id: find_matches(ctx, m, examples[m.module_id], list(catalog))
        for m in decayed
    }
    modules = dict(catalog_by_id)
    modules.update({m.module_id: m for m in decayed})
    # The producers the overlap tests link in front of a decayed step.
    for module_id in ("map.kegg_to_uniprot", "an.identify"):
        examples[module_id] = generator.generate(catalog_by_id[module_id]).examples
    repairer = WorkflowRepairer(ctx, modules, matches, pool, examples)
    return modules, repairer


class TestEquivalentRepair:
    def test_twin_substitution_full_repair(self, repair_world):
        modules, repairer = repair_world
        workflow = Workflow(
            "w-twin", "uses decayed KEGG SOAP",
            (Step("s1", "old.get_kegg_gene_s"),),
        )
        result = repairer.repair(workflow)
        assert result.outcome is RepairOutcome.FULL
        assert result.substitutions["s1"][1] == "ret.get_kegg_gene"
        assert result.substitutions["s1"][2] is MatchKind.EQUIVALENT
        assert result.validated

    def test_repair_validates_against_history(self, ctx, repair_world, pool):
        from repro.workflow.decay import restore_providers

        modules, repairer = repair_world
        workflow = Workflow(
            "w-hist", "with history",
            (Step("s1", "old.get_kegg_pathway_s"),),
        )
        decayed = [m for m in modules.values() if m.module_id.startswith("old.")]
        restore_providers(decayed, DECAYED_PROVIDERS)
        historical = Enactor(ctx, modules, pool).enact(workflow)
        shut_down_providers(decayed, DECAYED_PROVIDERS)
        result = repairer.repair(workflow, historical)
        assert result.outcome is RepairOutcome.FULL
        assert result.validated

    def test_healthy_workflow_untouched(self, repair_world):
        _modules, repairer = repair_world
        workflow = Workflow("w-ok", "healthy", (Step("s1", "ret.get_uniprot_record"),))
        result = repairer.repair(workflow)
        assert result.outcome is RepairOutcome.NONE
        assert not result.substitutions


class TestOverlappingRepair:
    def test_context_safe_substitution(self, repair_world):
        """The Figure 7 repair: GetProteinSequence replaced by
        GetBiologicalSequence when fed UniProt accessions by a link."""
        _modules, repairer = repair_world
        workflow = Workflow(
            "w-fig7", "figure 7",
            steps=(Step("s1", "map.kegg_to_uniprot"),
                   Step("s2", "old.get_protein_sequence"),
                   Step("s3", "an.blastp")),
            links=(DataLink("s1", "mapped", "s2", "id"),
                   DataLink("s2", "sequence", "s3", "sequence")),
        )
        result = repairer.repair(workflow)
        assert result.outcome is RepairOutcome.FULL
        assert result.substitutions["s2"][1] == "ret.get_biological_sequence"
        assert result.substitutions["s2"][2] is MatchKind.OVERLAPPING
        assert result.validated

    def test_free_input_is_not_context_safe(self, repair_world):
        """The same narrow module with a free input cannot be replaced:
        values outside the agreement domain could flow in."""
        _modules, repairer = repair_world
        workflow = Workflow(
            "w-free", "free input",
            (Step("s1", "old.get_protein_sequence"),),
        )
        result = repairer.repair(workflow)
        # Agreement domain is {UniProtAccession} but a free input ranges
        # over the full annotation... the annotation IS UniProtAccession,
        # so this one is actually safe.
        assert result.outcome is RepairOutcome.FULL

    def test_legacy_variant_with_free_parent_input_not_repaired(self, repair_world):
        """GetProteinRecordOld agrees only on UniProt; its free input is
        annotated ProteinAccession, so PIR values could flow in."""
        _modules, repairer = repair_world
        workflow = Workflow(
            "w-legacy", "legacy",
            (Step("s1", "old.get_protein_record"),),
        )
        result = repairer.repair(workflow)
        assert result.outcome is RepairOutcome.NONE
        assert result.unresolved == ["old.get_protein_record"]

    def test_legacy_variant_with_safe_link_is_repaired(self, repair_world):
        """The same legacy module fed UniProt accessions via a link is
        context-safe."""
        _modules, repairer = repair_world
        workflow = Workflow(
            "w-legacy-safe", "legacy safe",
            steps=(Step("s1", "map.kegg_to_uniprot"),
                   Step("s2", "old.get_protein_record")),
            links=(DataLink("s1", "mapped", "s2", "id"),),
        )
        result = repairer.repair(workflow)
        assert result.outcome is RepairOutcome.FULL
        assert result.substitutions["s2"][2] is MatchKind.OVERLAPPING


    def test_producer_examples_narrower_than_annotation_are_context_safe(
        self, repair_world
    ):
        """an.identify annotates its output ProteinAccession, but its
        examples carry only UniProt accessions — inside
        GetProteinRecordOld's agreement domain, which its annotation is
        not."""
        _modules, repairer = repair_world
        examples = repairer.examples_by_id["an.identify"]
        assert {
            b.value.concept for e in examples for b in e.outputs
        } == {"UniProtAccession"}
        result = repairer.repair(_identify_then_record())
        assert result.outcome is RepairOutcome.FULL
        assert result.substitutions["s2"][1] == "ret.get_protein_record"
        assert result.substitutions["s2"][2] is MatchKind.OVERLAPPING

    def test_producer_without_examples_falls_back_to_annotation(
        self, ctx, pool, repair_world
    ):
        """Without an example on the linked output, the producer's
        annotation (ProteinAccession) is what flows, and PIR accessions
        lie outside the agreement domain."""
        modules, repairer = repair_world
        examples = dict(repairer.examples_by_id)
        examples["an.identify"] = [
            DataExample(e.module_id, e.inputs, ())
            for e in examples["an.identify"]
        ]
        for producer_examples in (examples, {}):
            bare = WorkflowRepairer(
                ctx, modules, repairer.matches, pool, producer_examples
            )
            result = bare.repair(_identify_then_record())
            assert result.outcome is RepairOutcome.NONE
            assert result.unresolved == ["old.get_protein_record"]


def _identify_then_record() -> Workflow:
    return Workflow(
        "w-identify", "identify then fetch",
        steps=(Step("s1", "an.identify"), Step("s2", "old.get_protein_record")),
        links=(DataLink("s1", "accession", "s2", "id"),),
    )


class TestPartialRepair:
    def test_orphan_keeps_workflow_partial(self, repair_world):
        _modules, repairer = repair_world
        workflow = Workflow(
            "w-partial", "twin plus orphan",
            (Step("s1", "old.get_kegg_gene_s"), Step("s2", "old.get_homologous")),
        )
        result = repairer.repair(workflow)
        assert result.outcome is RepairOutcome.PARTIAL
        assert "s1" in result.substitutions
        assert result.unresolved == ["old.get_homologous"]

    def test_orphan_only_workflow_not_repaired(self, repair_world):
        _modules, repairer = repair_world
        workflow = Workflow("w-none", "orphan", (Step("s1", "old.get_homologous"),))
        result = repairer.repair(workflow)
        assert result.outcome is RepairOutcome.NONE

    def test_repair_all_processes_every_workflow(self, repair_world):
        _modules, repairer = repair_world
        workflows = [
            Workflow("a", "a", (Step("s", "old.get_kegg_gene_s"),)),
            Workflow("b", "b", (Step("s", "old.get_homologous"),)),
        ]
        results = repairer.repair_all(workflows)
        assert [r.outcome for r in results] == [
            RepairOutcome.FULL, RepairOutcome.NONE,
        ]
