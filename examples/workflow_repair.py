"""Repairing a decayed workflow (§6, Figures 6 and 7).

Builds the Figure 7 workflow — a producer feeding protein accessions into
``GetProteinSequence``, whose provider then shuts down — and repairs it
with the *overlapping* substitute ``GetBiologicalSequence``, validating
the repaired workflow against the pre-decay provenance.

Run:  python examples/workflow_repair.py
"""

from repro import (
    ExampleGenerator,
    InstancePool,
    build_mygrid_ontology,
    default_catalog,
    default_context,
    default_factory,
    find_matches,
)
from repro.core.repair import WorkflowRepairer
from repro.modules.catalog import DECAYED_PROVIDERS, build_decayed_modules
from repro.workflow import DataLink, Enactor, Step, Workflow, shut_down_providers


def main() -> None:
    ctx = default_context()
    catalog = list(default_catalog())
    decayed = build_decayed_modules()
    modules = {m.module_id: m for m in catalog}
    modules.update({m.module_id: m for m in decayed})
    pool = InstancePool.bootstrap(default_factory(), build_mygrid_ontology())
    enactor = Enactor(ctx, modules, pool)

    workflow = Workflow(
        workflow_id="figure-7",
        name="GO terms of the most similar protein (Figure 7)",
        steps=(
            Step("map", "map.kegg_to_uniprot"),
            Step("getseq", "old.get_protein_sequence"),
            Step("digest", "an.digest_protein"),
        ),
        links=(
            DataLink("map", "mapped", "getseq", "id"),
            DataLink("getseq", "sequence", "digest", "sequence"),
        ),
    )

    print("1. Before the decay event the workflow runs fine:")
    historical = enactor.enact(workflow)
    print(f"   succeeded={historical.succeeded}, "
          f"final outputs: {historical.final_outputs()[0].value.render(40)}\n")

    print("2. Harvest data examples for the soon-to-decay modules:")
    generator = ExampleGenerator(ctx, pool)
    examples = {m.module_id: generator.generate(m).examples for m in decayed}
    print(f"   reconstructed examples for {len(examples)} modules\n")

    print("3. The iSPIDER/KEGG-SOAP/BioMOBY/EMBRACE providers shut down:")
    gone = shut_down_providers(decayed, DECAYED_PROVIDERS)
    print(f"   {len(gone)} modules became unavailable")
    print(f"   workflow now fails: succeeded={enactor.try_enact(workflow).succeeded}\n")

    print("4. Match the unavailable module and repair the workflow:")
    matches = {
        m.module_id: find_matches(ctx, m, examples[m.module_id], catalog)
        for m in decayed
    }
    repairer = WorkflowRepairer(ctx, modules, matches, pool, examples)
    result = repairer.repair(workflow, historical)
    for step_id, (old, new, kind) in result.substitutions.items():
        print(f"   step {step_id!r}: {old} -> {new}  [{kind.value}]")
    print(f"   outcome: {result.outcome.value}, "
          f"validated against history: {result.validated}")


if __name__ == "__main__":
    main()
