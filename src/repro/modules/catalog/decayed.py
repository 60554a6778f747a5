"""The 72 unavailable modules of the §6 matching experiment.

These modules were supplied by providers that later shut down (workflow
decay [42]).  Their data examples can only be reconstructed from
provenance traces recorded while they were still invocable.  The set is
engineered to reproduce the Figure 8 population:

* **16 equivalence twins** — SOAP versions of popular KEGG utilities whose
  REST re-implementations live in the available catalog (the paper's own
  KEGG SOAP -> REST case).
* **23 overlap siblings**:

  - 6 narrow sequence retrievals (``GetProteinSequence`` and friends,
    Figure 7) whose only candidate is the broader
    ``GetBiologicalSequence`` via a relaxed (super-concept) parameter
    mapping — they agree on their whole sub-domain and are the
    *context-safe* substitutions that repair 13 workflows;
  - 17 legacy variants of multi-partition catalog modules that agree on
    some input partitions and disagree on others (legacy formatting,
    off-spec normalization).
* **33 orphans** — modules with signatures no available module shares, or
  whose outputs disagree everywhere (disjoint).
"""

from __future__ import annotations

from functools import lru_cache

from repro.biodb.accessions import scheme_for
from repro.modules.behavior import BehaviorSpec, Branch
from repro.modules.catalog.common import (
    payload_predicate,
    resolve_or_invalid,
    sequence_kind,
    valid_accession,
)
from repro.modules.catalog.factory import default_catalog
from repro.modules.errors import InvalidInputError
from repro.modules.model import (
    Category,
    InterfaceKind,
    Module,
    ModuleContext,
    Parameter,
)
from repro.values import FLOAT, STRING, TABULAR, TypedValue, list_of

LIST_STRING = list_of(STRING)
LIST_FLOAT = list_of(FLOAT)

#: Providers that shut down in the decay event.
DECAYED_PROVIDERS = frozenset({"KEGG-SOAP", "iSPIDER", "BioMOBY", "EMBRACE"})

#: Available module ids whose SOAP twins form the 16 equivalence group.
EQUIVALENT_TWIN_BASES: tuple[str, ...] = (
    "ret.get_kegg_gene",
    "ret.get_kegg_pathway",
    "ret.get_enzyme_entry",
    "ret.get_kegg_compound",
    "ret.get_gene_dna",
    "ret.get_glycan_entry",
    "ret.get_pathway_description",
    "ret.binfo",
    "map.kegg_to_uniprot",
    "map.kegg_to_entrez",
    "map.gene_to_pathways",
    "map.pathway_to_genes",
    "map.pathway_to_compounds",
    "map.compound_to_pathways",
    "map.get_genes_by_enzyme",
    "map.get_enzymes_by_gene",
)

#: (decayed id, scheme concept, sequence attribute) for the six Figure 7
#: narrow retrievals; they emit exactly what GetBiologicalSequence emits.
NARROW_SEQUENCE_RETRIEVALS: tuple[tuple[str, str, str, str], ...] = (
    ("old.get_protein_sequence", "GetProteinSequence", "UniProtAccession", "protein"),
    ("old.get_pir_sequence", "GetPIRSequence", "PIRAccession", "protein"),
    ("old.get_genbank_dna", "GetGenBankDNA", "GenBankAccession", "dna"),
    ("old.get_refseq_dna", "GetRefSeqDNA", "RefSeqNucleotideAccession", "dna"),
    ("old.get_entrez_dna", "GetEntrezDNA", "EntrezGeneId", "dna"),
    ("old.get_ensembl_dna", "GetEnsemblDNA", "EnsemblGeneId", "dna"),
)

#: The context-safe overlap group (used to size the 13-workflow repair).
CONTEXT_SAFE_OVERLAP_IDS = tuple(row[0] for row in NARROW_SEQUENCE_RETRIEVALS)


def _twin(base: Module, suffix: str = "_s") -> Module:
    """A SOAP clone of an available module: identical behavior, different
    identity and (decayed) provider."""
    return Module(
        module_id=f"old.{base.module_id.split('.', 1)[1]}{suffix}",
        name=f"{base.name}_v1",
        category=base.category,
        interface=InterfaceKind.SOAP_SERVICE,
        provider="KEGG-SOAP",
        inputs=base.inputs,
        outputs=base.outputs,
        behavior=base.behavior,
        popularity=base.popularity,
        legible=base.legible,
    )


def _perturb(value: TypedValue) -> TypedValue:
    """Deterministically alter an output value (legacy formatting)."""
    payload = value.payload
    if isinstance(payload, str):
        payload = payload.rstrip("\n") + "\n# legacy-format v1\n"
    elif isinstance(payload, tuple):
        payload = tuple(reversed(payload)) + ("LEGACY",)
    elif isinstance(payload, bool):
        payload = not payload
    elif isinstance(payload, (int, float)):
        payload = payload + 1
    return TypedValue(payload, value.structural, value.concept)


def _legacy_variant(base: Module, new_id: str, name: str, disagree, provider: str) -> Module:
    """A decayed sibling of ``base`` that matches its outputs except on
    the inputs accepted by ``disagree(ctx, inputs)``."""

    def wrap(branch: Branch) -> Branch:
        def transform(ctx: ModuleContext, inputs):
            outputs = branch.transform(ctx, inputs)
            if disagree(ctx, inputs):
                return {k: _perturb(v) for k, v in outputs.items()}
            return outputs

        return Branch(label=branch.label, guard=branch.guard, transform=transform)

    return Module(
        module_id=new_id,
        name=name,
        category=base.category,
        interface=InterfaceKind.SOAP_SERVICE,
        provider=provider,
        inputs=base.inputs,
        outputs=base.outputs,
        behavior=BehaviorSpec(tuple(wrap(b) for b in base.behavior.branches)),
        popularity=1,
        legible=base.legible,
    )


def _scheme_disagree(parameter: str, concepts: tuple[str, ...]):
    """Disagree exactly when the accession matches one of ``concepts``."""

    def predicate(_ctx, inputs):
        value = inputs.get(parameter)
        return value is not None and isinstance(value.payload, str) and any(
            scheme_for(c).is_valid(value.payload) for c in concepts
        )

    return predicate


def _kind_disagree(parameter: str, kinds: tuple[str, ...]):
    return lambda ctx, ins: sequence_kind(parameter, kinds)(ctx, ins)


def _narrow_retrieval(module_id, name, concept, kind) -> Module:
    """One Figure 7 narrow retrieval: id of one scheme in, the raw
    sequence out — byte-identical to GetBiologicalSequence's behavior on
    that scheme."""

    def transform(ctx: ModuleContext, inputs):
        entity = resolve_or_invalid(ctx, concept, inputs["id"].payload)
        if kind == "protein":
            return {
                "sequence": TypedValue(entity.sequence, STRING, "ProteinSequence")
            }
        return {"sequence": TypedValue(entity.dna_sequence, STRING, "DNASequence")}

    emitted = "ProteinSequence" if kind == "protein" else "DNASequence"
    return Module(
        module_id=module_id,
        name=name,
        category=Category.DATA_RETRIEVAL,
        interface=InterfaceKind.SOAP_SERVICE,
        provider="iSPIDER",
        inputs=(Parameter("id", STRING, concept),),
        outputs=(Parameter("sequence", STRING, emitted),),
        behavior=BehaviorSpec(
            (
                Branch(
                    f"sequence-from-{concept}",
                    valid_accession("id", concept),
                    transform,
                ),
            )
        ),
        popularity=2,
    )


def _orphans() -> list[Module]:
    """The 33 modules without any behavioral match in the catalog."""
    orphans: list[Module] = []

    # GetHomologous (Figure 6): protein accession -> similar proteins.
    def get_homologous(ctx: ModuleContext, inputs):
        protein = resolve_or_invalid(ctx, "UniProtAccession", inputs["id"].payload)
        similar = ctx.universe.similar_proteins(protein, limit=5)
        return {
            "homologs": TypedValue(
                tuple(p.uniprot for p in similar), LIST_STRING, "UniProtAccession"
            )
        }

    orphans.append(
        Module(
            module_id="old.get_homologous",
            name="GetHomologous",
            category=Category.DATA_ANALYSIS,
            interface=InterfaceKind.SOAP_SERVICE,
            provider="iSPIDER",
            inputs=(Parameter("id", STRING, "UniProtAccession"),),
            outputs=(Parameter("homologs", LIST_STRING, "UniProtAccession"),),
            behavior=BehaviorSpec(
                (
                    Branch(
                        "homology-search-by-accession",
                        valid_accession("id", "UniProtAccession"),
                        get_homologous,
                    ),
                )
            ),
            popularity=3,
            legible=False,
        )
    )

    # SearchProteinTop3: same signature as BlastPSearch, disjoint output.
    def search_top3(ctx: ModuleContext, inputs):
        from repro.biodb import reports

        hits = [
            (p.uniprot, p.name, score)
            for p, score in ctx.universe.rank_by_alignment(
                inputs["sequence"].payload, 3
            )
        ]
        text = reports.render_homology_report(
            "query", hits, inputs["database"].payload, "fasta34"
        )
        return {"report": TypedValue(text, TABULAR, "HomologySearchReport")}

    orphans.append(
        Module(
            module_id="old.search_protein_top3",
            name="SearchProtein",
            category=Category.DATA_ANALYSIS,
            interface=InterfaceKind.SOAP_SERVICE,
            provider="EMBRACE",
            inputs=(
                Parameter("sequence", STRING, "ProteinSequence"),
                Parameter("database", STRING, "DatabaseName"),
            ),
            outputs=(Parameter("report", TABULAR, "HomologySearchReport"),),
            behavior=BehaviorSpec(
                (
                    Branch(
                        "homology-top3",
                        sequence_kind("sequence", ("ProteinSequence",)),
                        search_top3,
                    ),
                )
            ),
            legible=False,
        )
    )

    # OldIdentify: identification report output (no available counterpart).
    def old_identify(ctx: ModuleContext, inputs):
        from repro.biodb.reports import render_identification_report

        protein = ctx.universe.identify_by_peptide_masses(list(inputs["masses"].payload))
        if protein is None:
            raise InvalidInputError("no identification")
        text = render_identification_report(
            protein.uniprot, protein.name, matched=len(inputs["masses"].payload),
            tolerance=inputs["tolerance"].payload,
        )
        return {"report": TypedValue(text, TABULAR, "IdentificationReport")}

    orphans.append(
        Module(
            module_id="old.identify_report",
            name="IdentifyPMF",
            category=Category.DATA_ANALYSIS,
            interface=InterfaceKind.SOAP_SERVICE,
            provider="iSPIDER",
            inputs=(
                Parameter("masses", LIST_FLOAT, "PeptideMassList"),
                Parameter("tolerance", FLOAT, "ErrorTolerance"),
            ),
            outputs=(Parameter("report", TABULAR, "IdentificationReport"),),
            behavior=BehaviorSpec(
                (
                    Branch(
                        "identification-report",
                        payload_predicate("masses", lambda m: len(m) > 0),
                        old_identify,
                    ),
                )
            ),
            legible=False,
        )
    )

    # TranslateSixFrames: same signature as FindORFs, disjoint outputs.
    def six_frames(ctx: ModuleContext, inputs):
        from repro.biodb.sequences import reverse_complement, translate

        dna = inputs["sequence"].payload
        frames = [translate(dna[offset:]) for offset in range(3)]
        frames += [translate(reverse_complement(dna)[offset:]) for offset in range(3)]
        return {"orfs": TypedValue(tuple(frames), LIST_STRING, "ProteinSequence")}

    orphans.append(
        Module(
            module_id="old.translate_six_frames",
            name="TranslateSixFrames",
            category=Category.DATA_ANALYSIS,
            interface=InterfaceKind.LOCAL_PROGRAM,
            provider="BioMOBY",
            inputs=(Parameter("sequence", STRING, "DNASequence"),),
            outputs=(Parameter("orfs", LIST_STRING, "ProteinSequence"),),
            behavior=BehaviorSpec(
                (
                    Branch(
                        "six-frame-translation",
                        sequence_kind("sequence", ("DNASequence",)),
                        six_frames,
                    ),
                )
            ),
            legible=False,
        )
    )

    # 29 legacy protein analyses with a signature no available module has
    # (ProteinSequence -> ExpressionStatisticsReport).
    stats = (
        ("residue_pair_bias", lambda s: sum(1 for a, b in zip(s, s[1:]) if a == b)),
        ("charge_runs", lambda s: s.count("KK") + s.count("RR")),
        ("aromatic_count", lambda s: sum(s.count(c) for c in "FWY")),
        ("tiny_count", lambda s: sum(s.count(c) for c in "AGS")),
        ("polar_count", lambda s: sum(s.count(c) for c in "STNQ")),
        ("kmer3_distinct", lambda s: len({s[i:i + 3] for i in range(len(s) - 2)})),
        ("kmer4_distinct", lambda s: len({s[i:i + 4] for i in range(len(s) - 3)})),
        ("n_terminal_code", lambda s: ord(s[0])),
        ("c_terminal_code", lambda s: ord(s[-1])),
        ("length_mod7", lambda s: len(s) % 7),
        ("length_mod11", lambda s: len(s) % 11),
        ("max_run", lambda s: max(sum(1 for _ in g) for _c, g in __import__("itertools").groupby(s))),
        ("acid_count", lambda s: s.count("D") + s.count("E")),
        ("base_count", lambda s: s.count("K") + s.count("R") + s.count("H")),
        ("proline_count", lambda s: s.count("P")),
        ("glycine_count", lambda s: s.count("G")),
        ("cys_pairs", lambda s: s.count("C") // 2),
        ("met_count", lambda s: s.count("M")),
        ("trp_count", lambda s: s.count("W")),
        ("half_point", lambda s: len(s) // 2),
        ("vowel_residues", lambda s: sum(s.count(c) for c in "AEI")),
        ("unique_fraction_pct", lambda s: 100 * len(set(s)) // len(s)),
        ("first_k_index", lambda s: s.find("K")),
        ("first_r_index", lambda s: s.find("R")),
        ("checksum_mod", lambda s: sum(map(ord, s)) % 97),
        ("alternations", lambda s: sum(1 for a, b in zip(s, s[1:]) if a != b)),
        ("heavy_count", lambda s: sum(s.count(c) for c in "WYRF")),
        ("light_count", lambda s: sum(s.count(c) for c in "GAS")),
        ("dipeptide_kr", lambda s: s.count("KR")),
    )
    for index, (stat_name, fn) in enumerate(stats, start=1):
        def transform(ctx, inputs, fn=fn, stat_name=stat_name):
            sequence = inputs["sequence"].payload
            text = f"statistic\t{stat_name}\nvalue\t{fn(sequence)}\n"
            return {"report": TypedValue(text, TABULAR, "ExpressionStatisticsReport")}

        orphans.append(
            Module(
                module_id=f"old.legacy_stat_{index:02d}",
                name=f"ProteinStat_{stat_name}",
                category=Category.DATA_ANALYSIS,
                interface=InterfaceKind.LOCAL_PROGRAM
                if index % 3 == 0
                else InterfaceKind.SOAP_SERVICE,
                provider=("iSPIDER", "BioMOBY", "EMBRACE")[index % 3],
                inputs=(Parameter("sequence", STRING, "ProteinSequence"),),
                outputs=(Parameter("report", TABULAR, "ExpressionStatisticsReport"),),
                behavior=BehaviorSpec(
                    (
                        Branch(
                            f"legacy-{stat_name}",
                            sequence_kind("sequence", ("ProteinSequence",)),
                            transform,
                        ),
                    )
                ),
                legible=False,
            )
        )
    return orphans


def build_decayed_modules() -> list[Module]:
    """Build the 72 decayed modules (initially still available, so that
    pre-decay provenance can be recorded)."""
    catalog = {m.module_id: m for m in default_catalog()}
    modules: list[Module] = []

    # 16 equivalence twins.
    for base_id in EQUIVALENT_TWIN_BASES:
        modules.append(_twin(catalog[base_id]))

    # 6 context-safe narrow retrievals (Figure 7).
    for module_id, name, concept, kind in NARROW_SEQUENCE_RETRIEVALS:
        modules.append(_narrow_retrieval(module_id, name, concept, kind))

    # 17 legacy variants agreeing on a strict partition subset.
    legacy_specs = (
        ("ret.get_protein_record", "old.get_protein_record", "GetProteinRecordOld",
         _scheme_disagree("id", ("PIRAccession",))),
        ("ret.fetch_protein_entry", "old.fetch_protein_entry", "FetchProteinEntryOld",
         _scheme_disagree("id", ("PIRAccession",))),
        ("ret.get_pathway_record", "old.get_pathway_record", "GetPathwayRecordOld",
         _scheme_disagree("id", ("ReactomePathwayId",))),
        ("ret.get_compound_record", "old.get_compound_record", "GetCompoundRecordOld",
         _scheme_disagree("id", ("ChEBIIdentifier",))),
        ("ret.get_term_record", "old.get_term_record", "GetTermRecordOld",
         _scheme_disagree("id", ("InterProIdentifier",))),
        ("ret.get_citation", "old.get_citation", "GetCitationOld",
         _scheme_disagree("id", ("DOIIdentifier",))),
        ("map.any_protein_to_gene", "old.any_protein_to_gene",
         "MapAnyProteinToGeneOld", _scheme_disagree("id", ("PIRAccession",))),
        ("map.any_pathway_to_genes", "old.any_pathway_to_genes",
         "MapAnyPathwayToGenesOld", _scheme_disagree("id", ("ReactomePathwayId",))),
        ("map.any_compound_to_ligands", "old.any_compound_to_ligands",
         "MapAnyCompoundToLigandsOld", _scheme_disagree("id", ("ChEBIIdentifier",))),
        ("map.any_term_to_proteins", "old.any_term_to_proteins",
         "MapAnyTermToProteinsOld", _scheme_disagree("id", ("InterProIdentifier",))),
        ("map.any_citation_to_proteins", "old.any_citation_to_proteins",
         "MapAnyCitationToProteinsOld", _scheme_disagree("id", ("DOIIdentifier",))),
        ("map.normalize_organism", "old.normalize_organism", "NormalizeOrganismOld",
         _scheme_disagree("id", ("ScientificOrganismName",))),
        ("an.sequence_length", "old.sequence_length", "SequenceLengthOld",
         _kind_disagree("sequence",
                        ("ProteinSequence", "NucleotideSequence", "BiologicalSequence"))),
        ("an.gc_content", "old.gc_content", "GCContentOld",
         _kind_disagree("sequence", ("RNASequence", "NucleotideSequence"))),
        ("an.reverse_sequence", "old.reverse_sequence", "ReverseSequenceOld",
         _kind_disagree("sequence", ("NucleotideSequence", "BiologicalSequence"))),
        ("map.link_kegg", "old.link_kegg", "LinkKEGGOld",
         _scheme_disagree("id", ("PubMedIdentifier", "DOIIdentifier"))),
        ("map.dblinks", "old.dblinks", "DbLinksOld",
         _scheme_disagree("id", ("KEGGGlycanId", "LigandId"))),
    )
    for base_id, new_id, name, disagree in legacy_specs:
        provider = "KEGG-SOAP" if "link" in new_id or "dblinks" in new_id else "iSPIDER"
        modules.append(
            _legacy_variant(catalog[base_id], new_id, name, disagree, provider)
        )

    modules.extend(_orphans())

    seen = set()
    for module in modules:
        if module.module_id in seen:
            raise AssertionError(f"duplicate decayed id {module.module_id}")
        seen.add(module.module_id)
        if module.provider not in DECAYED_PROVIDERS:
            raise AssertionError(
                f"{module.module_id} has non-decaying provider {module.provider}"
            )
    if len(modules) != 72:
        raise AssertionError(f"expected 72 decayed modules, built {len(modules)}")
    return modules


@lru_cache(maxsize=1)
def default_decayed() -> tuple[Module, ...]:
    """The cached decayed-module set."""
    return tuple(build_decayed_modules())
