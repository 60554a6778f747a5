"""Population tests over the 252-module catalog and the 72 decayed ones."""

from collections import Counter

from repro.core.partitioning import parameter_partitions
from repro.modules.catalog.decayed import (
    CONTEXT_SAFE_OVERLAP_IDS,
    DECAYED_PROVIDERS,
    EQUIVALENT_TWIN_BASES,
    build_decayed_modules,
)
from repro.modules.catalog.factory import (
    EXPECTED_CATEGORY_COUNTS,
    EXPECTED_INTERFACE_COUNTS,
)
from repro.modules.interfaces import invoke_via_interface
from repro.modules.model import Category, InterfaceKind


class TestPopulation:
    def test_total_module_count(self, catalog):
        assert len(catalog) == 252

    def test_table3_category_mix(self, catalog):
        counts = Counter(m.category for m in catalog)
        assert counts == Counter(EXPECTED_CATEGORY_COUNTS)

    def test_interface_mix(self, catalog):
        counts = Counter(m.interface.value for m in catalog)
        assert counts == Counter(EXPECTED_INTERFACE_COUNTS)

    def test_module_ids_unique(self, catalog):
        ids = [m.module_id for m in catalog]
        assert len(set(ids)) == len(ids)

    def test_all_catalog_modules_available(self, catalog):
        assert all(m.available for m in catalog)

    def test_no_catalog_module_has_decaying_provider(self, catalog):
        assert not any(m.provider in DECAYED_PROVIDERS for m in catalog)

    def test_annotations_reference_known_concepts(self, catalog, ontology):
        for module in catalog:
            for parameter in module.inputs + module.outputs:
                assert parameter.concept in ontology, (module.module_id, parameter)

    def test_example_output_concepts_subsumed_by_annotations(self, setup):
        """Every concept an output carries in the generated examples of
        the 252 catalog and 72 decayed modules falls under that output's
        annotation: what repair reads off a producer's examples never
        leaves the annotated domain."""
        setup.repository  # records the decayed modules' pre-decay examples
        examples_by_id = setup.examples_by_id
        ontology = setup.ctx.ontology
        modules = setup.catalog + setup.decayed
        assert len(modules) == 324
        for module in modules:
            examples = examples_by_id[module.module_id]
            assert examples, module.module_id
            for example in examples:
                for binding in example.outputs:
                    annotated = module.output(binding.parameter).concept
                    concept = binding.value.concept
                    assert concept is not None and ontology.subsumes(
                        annotated, concept
                    ), (module.module_id, binding.parameter, concept)

    def test_paper_named_modules_exist(self, catalog_by_id):
        for module_id, name in (
            ("ret.get_pdb_entry", "GetPDBEntry"),
            ("ret.binfo", "binfo"),
            ("map.link", "link"),
            ("map.get_genes_by_enzyme", "get_genes_by_enzyme"),
            ("an.identify", "Identify"),
            ("an.search_simple", "SearchSimple"),
            ("an.get_concept", "GetConcept"),
            ("ret.get_biological_sequence", "GetBiologicalSequence"),
        ):
            assert catalog_by_id[module_id].name == name

    def test_legibility_matches_paper_user1_breakdown(self, catalog):
        legible = Counter(m.category for m in catalog if m.legible)
        assert legible[Category.FORMAT_TRANSFORMATION] == 53
        assert legible[Category.MAPPING_IDENTIFIERS] == 62
        assert legible[Category.DATA_RETRIEVAL] == 43
        assert legible[Category.FILTERING] == 5
        assert legible[Category.DATA_ANALYSIS] == 6


class TestInvocability:
    def test_every_input_partition_has_an_accepted_value(
        self, catalog, ctx, pool, ontology
    ):
        """The §4.3 precondition: for every module, every realizable
        partition of every input carries a pool value the module accepts
        in at least one combination."""
        import itertools

        for module in catalog:
            per_input = []
            for parameter in module.inputs:
                values = [
                    value
                    for partition in parameter_partitions(ontology, parameter)
                    if (value := pool.get_instance(partition, parameter.structural))
                ]
                assert values, (module.module_id, parameter.name)
                per_input.append([(parameter.name, v) for v in values])
            accepted = {p.name: set() for p in module.inputs}
            for combo in itertools.product(*per_input):
                try:
                    invoke_via_interface(module, ctx, dict(combo))
                except Exception:
                    continue
                for name, value in combo:
                    accepted[name].add(value.concept)
            for parameter in module.inputs:
                expected = {
                    v.concept for _n, v in dict.fromkeys(
                        (n, v) for n, v in sum(per_input, []) if n == parameter.name
                    )
                }
                assert accepted[parameter.name] == expected, (
                    module.module_id, parameter.name,
                )

    def test_outputs_match_declared_structure(self, catalog, ctx, pool, ontology):
        for module in catalog[:40]:
            parameter = module.inputs[0]
            partitions = parameter_partitions(ontology, parameter)
            value = pool.get_instance(partitions[0], parameter.structural)
            bindings = {parameter.name: value}
            for other in module.inputs[1:]:
                bindings[other.name] = pool.get_instance(
                    parameter_partitions(ontology, other)[0], other.structural
                )
            try:
                outputs = invoke_via_interface(module, ctx, bindings)
            except Exception:
                continue
            for name, value in outputs.items():
                declared = module.output(name).structural
                assert value.feeds(declared), (module.module_id, name)


class TestDecayedSet:
    def test_decayed_count(self):
        assert len(build_decayed_modules()) == 72

    def test_group_sizes(self):
        modules = build_decayed_modules()
        twins = [m for m in modules if m.module_id.endswith("_s")]
        narrow = [m for m in modules if m.module_id in CONTEXT_SAFE_OVERLAP_IDS]
        assert len(twins) == len(EQUIVALENT_TWIN_BASES) == 16
        assert len(narrow) == 6

    def test_all_decayed_use_decaying_providers(self):
        for module in build_decayed_modules():
            assert module.provider in DECAYED_PROVIDERS

    def test_twins_share_base_signature(self, catalog_by_id):
        for module in build_decayed_modules():
            if not module.module_id.endswith("_s"):
                continue
            base_id = module.module_id[len("old."):-len("_s")]
            base = next(
                m for m in catalog_by_id.values()
                if m.module_id.split(".", 1)[1] == base_id
            )
            assert module.signature == base.signature

    def test_twins_are_soap(self):
        for module in build_decayed_modules():
            if module.module_id.endswith("_s"):
                assert module.interface is InterfaceKind.SOAP_SERVICE
