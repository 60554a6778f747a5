"""Identifier-mapping modules (62, Table 3 — the largest Shim category).

Mapping modules translate identifiers between data sources (§5: "used in
data integration workflows to combine and link data coming from different
sources").  Three sub-populations:

* 43 leaf-to-leaf mappings — one input partition, one behavior class:
  complete and concise.
* 12 mappings annotated at a parent identifier concept that normalize the
  child schemes into one behavior class — the Table 2 conciseness-0.5
  bucket (n=2 partitions, k=1 class).
* 7 KEGG-style generic cross-reference utilities (``link``, ``dblinks``,
  ...) whose input is annotated ``DatabaseAccession``: all 20 realizable
  partitions are accepted but collapse into 9 family-level behavior
  classes, conciseness 9/20 = 0.45 (the paper's 0.47 bucket) — and their
  output, annotated ``DatabaseAccession`` too, covers only a couple of
  schemes, making them the core of the paper's 19-module output-coverage
  tail (with ``get_genes_by_enzyme`` — emitted gene ids are KEGG only —
  and ``binfo``).
"""

from __future__ import annotations

from repro.biodb.accessions import scheme_for
from repro.biodb.entities import (
    Compound,
    Enzyme,
    Gene,
    Glycan,
    GOTerm,
    Ligand,
    Pathway,
    Protein,
    Publication,
    Structure,
)
from repro.modules.behavior import Branch
from repro.modules.catalog.common import (
    ModuleRow,
    any_of,
    assemble,
    resolve_or_invalid,
    valid_accession,
)
from repro.modules.errors import InvalidInputError
from repro.modules.model import Category, InterfaceKind, ModuleContext, Parameter
from repro.values import STRING, TypedValue, list_of

REST = InterfaceKind.REST_SERVICE
LIST_STRING = list_of(STRING)


# ----------------------------------------------------------------------
# Cross-reference engine over the universe
# ----------------------------------------------------------------------
def _xrefs(ctx: ModuleContext, entity, target: str) -> list[str]:
    """Cross-references from an entity to accessions of ``target``.

    Supports every (entity kind, target concept) pair the catalog uses;
    unsupported pairs terminate abnormally.
    """
    universe = ctx.universe
    if isinstance(entity, Protein):
        gene = universe.gene_for_protein(entity)
        table = {
            "KEGGGeneId": lambda: [gene.kegg_id],
            "EntrezGeneId": lambda: [gene.entrez_id],
            "EnsemblGeneId": lambda: [gene.ensembl_id],
            "EMBLAccession": lambda: [gene.embl],
            "UniProtAccession": lambda: [entity.uniprot],
            "PIRAccession": lambda: [entity.pir],
            "GOTermIdentifier": lambda: [
                universe.go_terms[o].go_id for o in entity.go_term_ordinals
            ],
            "PDBIdentifier": lambda: (
                [universe.structures[entity.structure_ordinal].pdb_id]
                if entity.structure_ordinal is not None
                else []
            ),
            "ECNumber": lambda: (
                [universe.enzymes[entity.ec_ordinal].ec_number]
                if entity.ec_ordinal is not None
                else []
            ),
            "PubMedIdentifier": lambda: [
                universe.publications[o].pubmed_id
                for o in entity.publication_ordinals
            ],
            "KEGGPathwayId": lambda: [
                universe.pathways[o].kegg_id for o in entity.pathway_ordinals
            ],
        }
    elif isinstance(entity, Gene):
        protein = ctx.universe.protein_for_gene(entity)
        table = {
            "UniProtAccession": lambda: [protein.uniprot],
            "PIRAccession": lambda: [protein.pir],
            "KEGGGeneId": lambda: [entity.kegg_id],
            "EntrezGeneId": lambda: [entity.entrez_id],
            "EnsemblGeneId": lambda: [entity.ensembl_id],
            "EMBLAccession": lambda: [entity.embl],
            "GenBankAccession": lambda: [entity.genbank],
            "RefSeqNucleotideAccession": lambda: [entity.refseq],
            "KEGGPathwayId": lambda: [
                universe.pathways[o].kegg_id for o in entity.pathway_ordinals
            ],
            "ECNumber": lambda: [
                enzyme.ec_number
                for enzyme in universe.enzymes
                if entity.ordinal in enzyme.gene_ordinals
            ],
        }
    elif isinstance(entity, Pathway):
        table = {
            "KEGGGeneId": lambda: [
                universe.genes[o].kegg_id for o in entity.gene_ordinals
            ],
            "KEGGCompoundId": lambda: [
                universe.compounds[o].kegg_id for o in entity.compound_ordinals
            ],
            "ReactomePathwayId": lambda: [entity.reactome_id],
            "KEGGPathwayId": lambda: [entity.kegg_id],
            "UniProtAccession": lambda: [
                universe.proteins[universe.genes[o].protein_ordinal].uniprot
                for o in entity.gene_ordinals
            ],
        }
    elif isinstance(entity, Enzyme):
        table = {
            "KEGGGeneId": lambda: [
                universe.genes[o].kegg_id for o in entity.gene_ordinals
            ],
            "KEGGCompoundId": lambda: [
                universe.compounds[o].kegg_id for o in entity.compound_ordinals
            ],
            "ChEBIIdentifier": lambda: [
                universe.compounds[o].chebi_id for o in entity.compound_ordinals
            ],
            "KEGGPathwayId": lambda: sorted(
                {
                    universe.pathways[po].kegg_id
                    for go in entity.gene_ordinals
                    for po in universe.genes[go].pathway_ordinals
                }
            ),
        }
    elif isinstance(entity, Compound):
        table = {
            "ChEBIIdentifier": lambda: [entity.chebi_id],
            "KEGGCompoundId": lambda: [entity.kegg_id],
            "KEGGGeneId": lambda: sorted(
                {
                    universe.genes[go].kegg_id
                    for enzyme in universe.enzymes
                    if entity.ordinal in enzyme.compound_ordinals
                    for go in enzyme.gene_ordinals
                }
            ),
            "KEGGPathwayId": lambda: [
                pathway.kegg_id
                for pathway in universe.pathways
                if entity.ordinal in pathway.compound_ordinals
            ],
            "LigandId": lambda: [
                ligand.ligand_id
                for ligand in universe.ligands
                if ligand.compound_ordinal == entity.ordinal
            ],
        }
    elif isinstance(entity, Structure):
        protein = universe.proteins[entity.protein_ordinal]
        table = {
            "UniProtAccession": lambda: [protein.uniprot],
            "KEGGGeneId": lambda: [universe.gene_for_protein(protein).kegg_id],
            "PDBIdentifier": lambda: [entity.pdb_id],
        }
    elif isinstance(entity, GOTerm):
        table = {
            "InterProIdentifier": lambda: [universe.interpro_for_go(entity)],
            "GOTermIdentifier": lambda: [entity.go_id],
            "UniProtAccession": lambda: [
                protein.uniprot
                for protein in universe.proteins
                if entity.ordinal in protein.go_term_ordinals
            ],
        }
    elif isinstance(entity, Publication):
        table = {
            "UniProtAccession": lambda: [
                universe.proteins[o].uniprot for o in entity.protein_ordinals
            ],
            "KEGGPathwayId": lambda: [
                universe.pathways[o].kegg_id for o in entity.pathway_ordinals
            ],
            "DOIIdentifier": lambda: [entity.doi],
            "PubMedIdentifier": lambda: [entity.pubmed_id],
        }
    elif isinstance(entity, Glycan):
        related = universe.compounds[entity.ordinal % len(universe.compounds)]
        table = {
            "KEGGCompoundId": lambda: [related.kegg_id],
            "KEGGGlycanId": lambda: [entity.glycan_id],
            "ChEBIIdentifier": lambda: [related.chebi_id],
        }
    elif isinstance(entity, Ligand):
        compound = universe.compounds[entity.compound_ordinal]
        table = {
            "KEGGCompoundId": lambda: [compound.kegg_id],
            "LigandId": lambda: [entity.ligand_id],
            "ChEBIIdentifier": lambda: [compound.chebi_id],
        }
    else:
        raise InvalidInputError(f"no cross-references for {type(entity).__name__}")
    builder = table.get(target)
    if builder is None:
        raise InvalidInputError(
            f"no {target} cross-references from {type(entity).__name__}"
        )
    return builder()


# ----------------------------------------------------------------------
# Leaf-to-leaf mappings
# ----------------------------------------------------------------------
def _map_row(
    module_id: str,
    name: str,
    src_concept: str,
    dst_concept: str,
    provider: str,
    interface: InterfaceKind | None = None,
    popularity: int = 1,
    many: bool = False,
    output_parent: str | None = None,
) -> ModuleRow:
    """A clean mapping module: resolve the source id, return the target
    id(s) via the cross-reference engine.

    ``output_parent`` annotates the output at a more general concept than
    ``dst_concept`` (output-partition shortfall, e.g. ``get_genes_by_enzyme``).
    """
    annotated = output_parent or dst_concept
    structural = LIST_STRING if many else STRING

    def transform(ctx: ModuleContext, inputs: dict[str, TypedValue]):
        entity = resolve_or_invalid(ctx, src_concept, inputs["id"].payload)
        refs = _xrefs(ctx, entity, dst_concept)
        if many:
            return {"mapped": TypedValue(tuple(refs), LIST_STRING, dst_concept)}
        if not refs:
            raise InvalidInputError(f"{module_id}: no {dst_concept} mapping")
        return {"mapped": TypedValue(refs[0], STRING, dst_concept)}

    return ModuleRow(
        module_id=module_id,
        name=name,
        inputs=(Parameter("id", STRING, src_concept),),
        outputs=(Parameter("mapped", structural, annotated),),
        branches=(
            Branch(
                label=f"map-{src_concept}-to-{dst_concept}",
                guard=valid_accession("id", src_concept),
                transform=transform,
            ),
        ),
        provider=provider,
        interface=interface,
        popularity=popularity,
    )


def _normalizing_map_row(
    module_id: str,
    name: str,
    parent_concept: str,
    child_concepts: tuple[str, str],
    dst_concept: str,
    provider: str,
    many: bool = False,
) -> ModuleRow:
    """A mapping annotated at a parent identifier concept: both child
    schemes are resolved to the same entity and mapped identically — one
    class over two partitions (conciseness 0.5)."""
    structural = LIST_STRING if many else STRING

    def transform(ctx: ModuleContext, inputs: dict[str, TypedValue]):
        accession = inputs["id"].payload
        for child in child_concepts:
            if scheme_for(child).is_valid(accession):
                entity = resolve_or_invalid(ctx, child, accession)
                refs = _xrefs(ctx, entity, dst_concept)
                if many:
                    return {
                        "mapped": TypedValue(tuple(refs), LIST_STRING, dst_concept)
                    }
                if not refs:
                    raise InvalidInputError(f"{module_id}: no mapping")
                return {"mapped": TypedValue(refs[0], STRING, dst_concept)}
        raise InvalidInputError(f"{module_id}: unrecognized accession {accession!r}")

    return ModuleRow(
        module_id=module_id,
        name=name,
        inputs=(Parameter("id", STRING, parent_concept),),
        outputs=(Parameter("mapped", structural, dst_concept),),
        branches=(
            Branch(
                label=f"map-any-to-{dst_concept}",
                guard=any_of(
                    *(valid_accession("id", child) for child in child_concepts)
                ),
                transform=transform,
            ),
        ),
        provider=provider,
    )


# ----------------------------------------------------------------------
# The KEGG-style link family (conciseness 7/15 + output shortfall)
# ----------------------------------------------------------------------
#: family label -> (member identifier concepts, entity resolver concepts)
LINK_FAMILIES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("protein", ("UniProtAccession", "PIRAccession")),
    ("nucleotide", ("EMBLAccession", "GenBankAccession", "RefSeqNucleotideAccession")),
    ("gene", ("KEGGGeneId", "EntrezGeneId", "EnsemblGeneId")),
    ("pathway", ("KEGGPathwayId", "ReactomePathwayId")),
    ("chemistry", ("ECNumber", "KEGGCompoundId", "ChEBIIdentifier")),
    ("structure", ("PDBIdentifier",)),
    ("term", ("GOTermIdentifier", "InterProIdentifier")),
    ("literature", ("PubMedIdentifier", "DOIIdentifier")),
    ("glycoligand", ("KEGGGlycanId", "LigandId")),
)


def _link_row(
    module_id: str,
    name: str,
    targets: dict[str, str],
    provider: str,
    interface: InterfaceKind | None = None,
    popularity: int = 1,
) -> ModuleRow:
    """A generic cross-reference utility: input annotated at
    ``DatabaseAccession``; one behavior class per accession *family*;
    each family maps to the module-specific target scheme in ``targets``."""

    def branch_for(family: str, concepts: tuple[str, ...]) -> Branch:
        target = targets[family]

        def transform(ctx: ModuleContext, inputs: dict[str, TypedValue]):
            accession = inputs["id"].payload
            for concept in concepts:
                if scheme_for(concept).is_valid(accession):
                    entity = resolve_or_invalid(ctx, concept, accession)
                    refs = _xrefs(ctx, entity, target)
                    return {"links": TypedValue(tuple(refs), LIST_STRING, target)}
            raise InvalidInputError(f"{module_id}: unrecognized accession")

        return Branch(
            label=f"link-{family}",
            guard=any_of(*(valid_accession("id", c) for c in concepts)),
            transform=transform,
        )

    return ModuleRow(
        module_id=module_id,
        name=name,
        inputs=(Parameter("id", STRING, "DatabaseAccession"),),
        outputs=(Parameter("links", LIST_STRING, "DatabaseAccession"),),
        branches=tuple(branch_for(f, cs) for f, cs in LINK_FAMILIES),
        provider=provider,
        interface=interface,
        popularity=popularity,
        legible=True,
    )


def _organism_normalizer_row() -> ModuleRow:
    """``NormalizeOrganism``: taxon id or Latin name in, taxon id out —
    one class over the two OrganismIdentifier partitions."""

    def transform(ctx: ModuleContext, inputs: dict[str, TypedValue]):
        payload = inputs["id"].payload
        for concept in ("NCBITaxonId", "ScientificOrganismName"):
            if scheme_for(concept).is_valid(payload):
                organism = resolve_or_invalid(ctx, concept, payload)
                taxon = ctx.universe.taxon_for_organism(organism)
                return {"mapped": TypedValue(taxon, STRING, "NCBITaxonId")}
        raise InvalidInputError(f"unrecognized organism {payload!r}")

    return ModuleRow(
        module_id="map.normalize_organism",
        name="NormalizeOrganism",
        inputs=(Parameter("id", STRING, "OrganismIdentifier"),),
        outputs=(Parameter("mapped", STRING, "NCBITaxonId"),),
        branches=(
            Branch(
                "normalize-organism",
                any_of(
                    valid_accession("id", "NCBITaxonId"),
                    valid_accession("id", "ScientificOrganismName"),
                ),
                transform,
            ),
        ),
        provider="NCBI",
    )


def build_mapping_modules():
    """Assemble the 62 identifier-mapping modules (SOAP 40 / REST 14 / local 8)."""
    rows: list[ModuleRow] = [
        # --- protein-centric leaf maps (clean) ---------------------------
        _map_row("map.uniprot_to_kegg", "MapUniProtToKEGG", "UniProtAccession",
                 "KEGGGeneId", "EBI", popularity=5),
        _map_row("map.uniprot_to_entrez", "MapUniProtToEntrez", "UniProtAccession",
                 "EntrezGeneId", "NCBI"),
        _map_row("map.uniprot_to_ensembl", "MapUniProtToEnsembl", "UniProtAccession",
                 "EnsemblGeneId", "Ensembl"),
        _map_row("map.uniprot_to_pir", "MapUniProtToPIR", "UniProtAccession",
                 "PIRAccession", "PIR"),
        _map_row("map.pir_to_uniprot", "MapPIRToUniProt", "PIRAccession",
                 "UniProtAccession", "PIR"),
        _map_row("map.get_go_term", "GetGOTerm", "UniProtAccession",
                 "GOTermIdentifier", "GO", popularity=7),
        _map_row("map.uniprot_to_pdb", "MapUniProtToPDB", "UniProtAccession",
                 "PDBIdentifier", "PDB"),
        _map_row("map.pdb_to_uniprot", "MapPDBToUniProt", "PDBIdentifier",
                 "UniProtAccession", "PDB"),
        _map_row("map.uniprot_to_pubmed", "MapUniProtToPubMed", "UniProtAccession",
                 "PubMedIdentifier", "NCBI", many=True),
        _map_row("map.uniprot_to_ec", "MapUniProtToEC", "UniProtAccession",
                 "ECNumber", "ExPASy"),
        _map_row("map.uniprot_to_pathways", "GetPathwaysForProtein",
                 "UniProtAccession", "KEGGPathwayId", "KEGG-REST", interface=REST,
                 many=True, popularity=5),
        # --- literature maps ---------------------------------------------
        _map_row("map.pubmed_to_doi", "MapPubMedToDOI", "PubMedIdentifier",
                 "DOIIdentifier", "CrossRef"),
        _map_row("map.doi_to_pubmed", "MapDOIToPubMed", "DOIIdentifier",
                 "PubMedIdentifier", "CrossRef"),
        _map_row("map.pubmed_to_proteins", "GetProteinsInPaper", "PubMedIdentifier",
                 "UniProtAccession", "NCBI", many=True),
        # --- nucleotide maps ----------------------------------------------
        _map_row("map.embl_to_uniprot", "MapEMBLToUniProt", "EMBLAccession",
                 "UniProtAccession", "EBI", popularity=4),
        _map_row("map.genbank_to_embl", "MapGenBankToEMBL", "GenBankAccession",
                 "EMBLAccession", "NCBI"),
        _map_row("map.embl_to_genbank", "MapEMBLToGenBank", "EMBLAccession",
                 "GenBankAccession", "EBI"),
        _map_row("map.refseq_to_embl", "MapRefSeqToEMBL",
                 "RefSeqNucleotideAccession", "EMBLAccession", "NCBI"),
        _map_row("map.genbank_to_refseq", "MapGenBankToRefSeq", "GenBankAccession",
                 "RefSeqNucleotideAccession", "NCBI"),
        # --- gene-id maps ---------------------------------------------------
        _map_row("map.kegg_to_uniprot", "MapKEGGToUniProt", "KEGGGeneId",
                 "UniProtAccession", "KEGG-REST", interface=REST, popularity=6),
        _map_row("map.kegg_to_entrez", "MapKEGGToEntrez", "KEGGGeneId",
                 "EntrezGeneId", "KEGG-REST", interface=REST),
        _map_row("map.kegg_to_ensembl", "MapKEGGToEnsembl", "KEGGGeneId",
                 "EnsemblGeneId", "Ensembl"),
        _map_row("map.entrez_to_kegg", "MapEntrezToKEGG", "EntrezGeneId",
                 "KEGGGeneId", "NCBI"),
        _map_row("map.entrez_to_ensembl", "MapEntrezToEnsembl", "EntrezGeneId",
                 "EnsemblGeneId", "NCBI"),
        _map_row("map.ensembl_to_entrez", "MapEnsemblToEntrez", "EnsemblGeneId",
                 "EntrezGeneId", "Ensembl"),
        _map_row("map.ensembl_to_kegg", "MapEnsemblToKEGG", "EnsemblGeneId",
                 "KEGGGeneId", "Ensembl"),
        _map_row("map.kegg_to_embl", "MapKEGGToEMBL", "KEGGGeneId",
                 "EMBLAccession", "KEGG-REST", interface=REST),
        _map_row("map.embl_to_kegg", "MapEMBLToKEGG", "EMBLAccession",
                 "KEGGGeneId", "EBI"),
        # --- pathway & enzyme maps -----------------------------------------
        _map_row("map.gene_to_pathways", "GetPathwaysByGene", "KEGGGeneId",
                 "KEGGPathwayId", "KEGG-REST", interface=REST, many=True,
                 popularity=8),
        _map_row("map.pathway_to_genes", "GetGenesByPathway", "KEGGPathwayId",
                 "KEGGGeneId", "KEGG-REST", interface=REST, many=True,
                 popularity=8),
        _map_row("map.kegg_pathway_to_reactome", "MapKEGGPathwayToReactome",
                 "KEGGPathwayId", "ReactomePathwayId", "Reactome"),
        _map_row("map.reactome_to_kegg_pathway", "MapReactomeToKEGGPathway",
                 "ReactomePathwayId", "KEGGPathwayId", "Reactome"),
        _map_row("map.pathway_to_compounds", "GetCompoundsByPathway",
                 "KEGGPathwayId", "KEGGCompoundId", "KEGG-REST", interface=REST,
                 many=True, popularity=5),
        _map_row("map.compound_to_pathways", "GetPathwaysByCompound",
                 "KEGGCompoundId", "KEGGPathwayId", "KEGG-REST", interface=REST,
                 many=True),
        # get_genes_by_enzyme: output annotated at the parent GeneIdentifier
        # concept while only KEGG gene ids are emitted (paper-named
        # output-coverage exception).
        _map_row("map.get_genes_by_enzyme", "get_genes_by_enzyme", "ECNumber",
                 "KEGGGeneId", "KEGG-REST", interface=REST, many=True,
                 popularity=7, output_parent="GeneIdentifier"),
        _map_row("map.get_enzymes_by_gene", "get_enzymes_by_gene", "KEGGGeneId",
                 "ECNumber", "KEGG-REST", interface=REST, many=True, popularity=5),
        _map_row("map.enzyme_to_compounds", "GetCompoundsByEnzyme", "ECNumber",
                 "KEGGCompoundId", "KEGG-REST", interface=REST, many=True),
        # --- compound maps ----------------------------------------------------
        _map_row("map.compound_to_chebi", "MapKEGGCompoundToChEBI",
                 "KEGGCompoundId", "ChEBIIdentifier", "EBI"),
        _map_row("map.chebi_to_compound", "MapChEBIToKEGGCompound",
                 "ChEBIIdentifier", "KEGGCompoundId", "EBI"),
        # --- term maps ---------------------------------------------------------
        _map_row("map.go_to_interpro", "MapGOToInterPro", "GOTermIdentifier",
                 "InterProIdentifier", "EBI"),
        _map_row("map.interpro_to_go", "MapInterProToGO", "InterProIdentifier",
                 "GOTermIdentifier", "EBI"),
        _map_row("map.go_to_proteins", "GetProteinsByGOTerm", "GOTermIdentifier",
                 "UniProtAccession", "GO", many=True),
    ]

    # --- AnnotationSet shortfall module (clean tables-wise) ---------------
    def annotations_transform(ctx: ModuleContext, inputs: dict[str, TypedValue]):
        from repro.biodb.formats import render_tabular
        from repro.values import TABULAR

        protein = resolve_or_invalid(ctx, "UniProtAccession", inputs["id"].payload)
        lines = {
            ctx.universe.go_terms[o].go_id: ctx.universe.go_terms[o].name
            for o in protein.go_term_ordinals
        }
        return {
            "annotations": TypedValue(
                render_tabular(lines), TABULAR, "GOAnnotationSet"
            )
        }

    from repro.values import TABULAR as _TABULAR

    rows.append(
        ModuleRow(
            module_id="map.get_annotations",
            name="GetAnnotations",
            inputs=(Parameter("id", STRING, "UniProtAccession"),),
            # Annotated at the covered AnnotationSet parent; only GO
            # annotation sets are emitted (output shortfall).
            outputs=(Parameter("annotations", _TABULAR, "AnnotationSet"),),
            branches=(
                Branch(
                    "map-protein-to-annotations",
                    valid_accession("id", "UniProtAccession"),
                    annotations_transform,
                ),
            ),
            provider="GO",
        )
    )

    # --- the 12 normalizing (conciseness 0.5) mappings ---------------------
    protein_children = ("UniProtAccession", "PIRAccession")
    pathway_children = ("KEGGPathwayId", "ReactomePathwayId")
    compound_children = ("KEGGCompoundId", "ChEBIIdentifier")
    term_children = ("GOTermIdentifier", "InterProIdentifier")
    literature_children = ("PubMedIdentifier", "DOIIdentifier")
    rows.extend(
        [
            _normalizing_map_row(
                "map.any_protein_to_gene", "MapAnyProteinToGene", "ProteinAccession",
                protein_children, "KEGGGeneId", "DDBJ",
            ),
            _normalizing_map_row(
                "map.any_protein_to_embl", "MapAnyProteinToEMBL", "ProteinAccession",
                protein_children, "EMBLAccession", "EBI",
            ),
            _normalizing_map_row(
                "map.any_protein_to_entrez", "MapAnyProteinToEntrez",
                "ProteinAccession", protein_children, "EntrezGeneId", "NCBI",
            ),
            _normalizing_map_row(
                "map.any_protein_to_go", "MapAnyProteinToGO", "ProteinAccession",
                protein_children, "GOTermIdentifier", "GO", many=True,
            ),
            _normalizing_map_row(
                "map.any_pathway_to_genes", "MapAnyPathwayToGenes",
                "PathwayIdentifier", pathway_children, "KEGGGeneId", "KEGG-mirror",
                many=True,
            ),
            _normalizing_map_row(
                "map.any_pathway_to_compounds", "MapAnyPathwayToCompounds",
                "PathwayIdentifier", pathway_children, "KEGGCompoundId",
                "KEGG-mirror", many=True,
            ),
            _normalizing_map_row(
                "map.any_compound_to_pathways", "MapAnyCompoundToPathways",
                "CompoundIdentifier", compound_children, "KEGGPathwayId",
                "KEGG-mirror", many=True,
            ),
            _normalizing_map_row(
                "map.any_compound_to_ligands", "MapAnyCompoundToLigands",
                "CompoundIdentifier", compound_children, "LigandId", "LigandDB",
                many=True,
            ),
            _normalizing_map_row(
                "map.any_term_to_proteins", "MapAnyTermToProteins",
                "OntologyTermIdentifier", term_children, "UniProtAccession", "GO",
                many=True,
            ),
            _normalizing_map_row(
                "map.any_citation_to_proteins", "MapAnyCitationToProteins",
                "LiteratureIdentifier", literature_children, "UniProtAccession",
                "NCBI", many=True,
            ),
            _normalizing_map_row(
                "map.any_citation_to_pathways", "MapAnyCitationToPathways",
                "LiteratureIdentifier", literature_children, "KEGGPathwayId",
                "NCBI", many=True,
            ),
        ]
    )
    rows.append(_organism_normalizer_row())

    # --- the 7 link-family utilities (conciseness 7/15) ---------------------
    rows.extend(
        [
            _link_row(
                "map.link", "link",
                {
                    "protein": "KEGGGeneId", "nucleotide": "UniProtAccession",
                    "gene": "UniProtAccession", "pathway": "KEGGGeneId",
                    "chemistry": "KEGGCompoundId", "structure": "UniProtAccession",
                    "term": "UniProtAccession",
                    "literature": "UniProtAccession", "glycoligand": "KEGGCompoundId",
                },
                "KEGG-REST", interface=REST, popularity=8,
            ),
            _link_row(
                "map.dblinks", "dblinks",
                {
                    "protein": "EMBLAccession", "nucleotide": "KEGGGeneId",
                    "gene": "EMBLAccession", "pathway": "ReactomePathwayId",
                    "chemistry": "ChEBIIdentifier", "structure": "KEGGGeneId",
                    "term": "InterProIdentifier",
                    "literature": "DOIIdentifier", "glycoligand": "ChEBIIdentifier",
                },
                "KEGG-REST", interface=REST, popularity=5,
            ),
            _link_row(
                "map.crossref_all", "crossref_all",
                {
                    "protein": "GOTermIdentifier", "nucleotide": "EntrezGeneId",
                    "gene": "KEGGPathwayId", "pathway": "UniProtAccession",
                    "chemistry": "KEGGPathwayId", "structure": "PDBIdentifier",
                    "term": "GOTermIdentifier",
                    "literature": "KEGGPathwayId", "glycoligand": "KEGGCompoundId",
                },
                "EBI",
            ),
            _link_row(
                "map.xref_lookup", "xref_lookup",
                {
                    "protein": "PDBIdentifier", "nucleotide": "GenBankAccession",
                    "gene": "EntrezGeneId", "pathway": "KEGGCompoundId",
                    "chemistry": "KEGGGeneId", "structure": "UniProtAccession",
                    "term": "UniProtAccession",
                    "literature": "UniProtAccession", "glycoligand": "ChEBIIdentifier",
                },
                "DDBJ",
            ),
            _link_row(
                "map.link_uniprot", "link_uniprot",
                {
                    "protein": "UniProtAccession", "nucleotide": "UniProtAccession",
                    "gene": "UniProtAccession", "pathway": "UniProtAccession",
                    "chemistry": "KEGGGeneId", "structure": "UniProtAccession",
                    "term": "UniProtAccession",
                    "literature": "UniProtAccession", "glycoligand": "KEGGCompoundId",
                },
                "EBI",
            ),
            _link_row(
                "map.link_kegg", "link_kegg",
                {
                    "protein": "KEGGGeneId", "nucleotide": "KEGGGeneId",
                    "gene": "KEGGGeneId", "pathway": "KEGGGeneId",
                    "chemistry": "KEGGGeneId", "structure": "KEGGGeneId",
                    "term": "UniProtAccession",
                    "literature": "KEGGPathwayId", "glycoligand": "KEGGCompoundId",
                },
                "KEGG-REST", interface=REST, popularity=5,
            ),
            _link_row(
                "map.link_embl", "link_embl",
                {
                    "protein": "EMBLAccession", "nucleotide": "EMBLAccession",
                    "gene": "EMBLAccession", "pathway": "KEGGGeneId",
                    "chemistry": "KEGGCompoundId", "structure": "KEGGGeneId",
                    "term": "InterProIdentifier",
                    "literature": "PubMedIdentifier", "glycoligand": "KEGGCompoundId",
                },
                "EBI",
            ),
        ]
    )

    return assemble(rows, Category.MAPPING_IDENTIFIERS, n_soap=40, n_rest=14, n_local=8)
