"""Data-retrieval modules (51, Table 3).

Retrieval modules fetch the database record that corresponds to an
accession (§5: "modules of this kind are used to retrieve records from
scientific databases that correspond to an identifier").

Three sub-populations reproduce the paper's measured structure:

* 39 modules with leaf-annotated identifier inputs — one partition, one
  behavior class: complete *and* concise.
* 12 modules whose input is annotated at a *parent* identifier concept
  (``ProteinAccession``, ``PathwayIdentifier``, ...) and that treat the
  child schemes identically — the ontology over-partitions their domain
  into two partitions while the module has a single class of behavior,
  yielding the Table 2 conciseness-0.5 bucket.
* 3 of the 39 additionally have an output annotated more generally than
  what they emit (``GetBiologicalSequence``, ``GetSequenceRecord``,
  ``binfo``) — contributing to the 19-module output-coverage tail (§4.3).
"""

from __future__ import annotations

from repro.biodb import formats, records
from repro.biodb.sequences import transcribe
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
from repro.values import (
    EMBL_FLAT,
    FASTA,
    GENBANK_FLAT,
    JSON_TEXT,
    KEGG_FLAT,
    OBO_TEXT,
    PDB_TEXT,
    PLAIN_TEXT,
    STRING,
    TABULAR,
    UNIPROT_FLAT,
    XML,
    StructuralType,
    TypedValue,
)

REST = InterfaceKind.REST_SERVICE

#: id concept -> fields builder over the resolved entity.
_FIELDS = {
    "UniProtAccession": lambda u, e: records.protein_fields(u, e),
    "PIRAccession": lambda u, e: dict(records.protein_fields(u, e), accession=e.pir),
    "EMBLAccession": lambda u, e: records.gene_fields(u, e),
    "GenBankAccession": lambda u, e: dict(
        records.gene_fields(u, e), accession=e.genbank
    ),
    "RefSeqNucleotideAccession": lambda u, e: dict(
        records.gene_fields(u, e), accession=e.refseq
    ),
    "KEGGGeneId": lambda u, e: records.kegg_gene_fields(u, e),
    "EntrezGeneId": lambda u, e: dict(
        records.kegg_gene_fields(u, e), accession=e.entrez_id
    ),
    "EnsemblGeneId": lambda u, e: dict(
        records.kegg_gene_fields(u, e), accession=e.ensembl_id
    ),
    "KEGGPathwayId": lambda u, e: records.pathway_fields(u, e),
    "ReactomePathwayId": lambda u, e: dict(
        records.pathway_fields(u, e), accession=e.reactome_id
    ),
    "ECNumber": lambda u, e: records.enzyme_fields(u, e),
    "KEGGCompoundId": lambda u, e: records.compound_fields(u, e),
    "ChEBIIdentifier": lambda u, e: dict(
        records.compound_fields(u, e), accession=e.chebi_id
    ),
    "PDBIdentifier": lambda u, e: records.structure_fields(u, e),
    "GOTermIdentifier": lambda u, e: records.go_term_fields(u, e),
    "InterProIdentifier": lambda u, e: dict(
        records.go_term_fields(u, e), accession=u.interpro_for_go(e)
    ),
    "PubMedIdentifier": lambda u, e: records.publication_fields(u, e),
    "DOIIdentifier": lambda u, e: dict(
        records.publication_fields(u, e), accession=e.doi
    ),
    "KEGGGlycanId": lambda u, e: records.glycan_fields(u, e),
    "LigandId": lambda u, e: records.ligand_fields(u, e),
}

_RENDERERS = {
    UNIPROT_FLAT.name: formats.render_uniprot_flat,
    EMBL_FLAT.name: formats.render_embl_flat,
    GENBANK_FLAT.name: formats.render_genbank_flat,
    KEGG_FLAT.name: formats.render_kegg_flat,
    PDB_TEXT.name: formats.render_pdb_text,
    OBO_TEXT.name: formats.render_obo_stanza,
    TABULAR.name: formats.render_tabular,
    XML.name: formats.render_xml,
    JSON_TEXT.name: formats.render_json,
    FASTA.name: formats.render_fasta,
    PLAIN_TEXT.name: formats.render_medline,
}


def _render(fmt: StructuralType, fields: dict[str, str]) -> str:
    return _RENDERERS[fmt.name](fields)


def _retrieval_transform(id_concept: str, fmt: StructuralType, record_concept: str):
    fields_fn = _FIELDS[id_concept]

    def transform(ctx: ModuleContext, inputs: dict[str, TypedValue]):
        entity = resolve_or_invalid(ctx, id_concept, inputs["id"].payload)
        fields = fields_fn(ctx.universe, entity)
        return {"record": TypedValue(_render(fmt, fields), fmt, record_concept)}

    return transform


def _leaf_retrieval(
    module_id: str,
    name: str,
    id_concept: str,
    record_concept: str,
    fmt: StructuralType,
    provider: str,
    interface: InterfaceKind | None = None,
    popularity: int = 1,
    legible: bool = True,
    output_concept: str | None = None,
) -> ModuleRow:
    """A clean retrieval module: leaf id in, one record format out.

    ``output_concept`` (when given) annotates the output more generally
    than ``record_concept``, which stays the concept actually emitted —
    producing an output-partition shortfall.
    """
    annotated = output_concept or record_concept
    return ModuleRow(
        module_id=module_id,
        name=name,
        inputs=(Parameter("id", STRING, id_concept),),
        outputs=(Parameter("record", fmt, annotated),),
        branches=(
            Branch(
                label=f"retrieve-{record_concept}",
                guard=valid_accession("id", id_concept),
                transform=_retrieval_transform(id_concept, fmt, record_concept),
            ),
        ),
        provider=provider,
        interface=interface,
        popularity=popularity,
        legible=legible,
    )


def _multi_scheme_retrieval(
    module_id: str,
    name: str,
    parent_concept: str,
    child_concepts: tuple[str, str],
    record_concept: str,
    fmt: StructuralType,
    provider: str,
) -> ModuleRow:
    """A retrieval module annotated at a parent identifier concept that
    normalizes both child schemes into the same record — one behavior
    class over two ontology partitions (Table 2's 0.5 bucket)."""

    def transform(ctx: ModuleContext, inputs: dict[str, TypedValue]):
        from repro.biodb.accessions import scheme_for

        accession = inputs["id"].payload
        for child in child_concepts:
            if scheme_for(child).is_valid(accession):
                entity = resolve_or_invalid(ctx, child, accession)
                # Normalize: whatever scheme the id came in, the record is
                # rendered in the primary scheme's canonical form.
                fields = _FIELDS[child_concepts[0]](ctx.universe, entity)
                return {
                    "record": TypedValue(_render(fmt, fields), fmt, record_concept)
                }
        raise InvalidInputError(f"{module_id}: unrecognized accession {accession!r}")

    return ModuleRow(
        module_id=module_id,
        name=name,
        inputs=(Parameter("id", STRING, parent_concept),),
        outputs=(Parameter("record", fmt, record_concept),),
        branches=(
            Branch(
                label=f"retrieve-any-{record_concept}",
                guard=any_of(
                    *(valid_accession("id", child) for child in child_concepts)
                ),
                transform=transform,
            ),
        ),
        provider=provider,
    )


#: (child concept) -> the sequence extracted by GetBiologicalSequence and
#: the most specific concept of that sequence.
_BIOSEQ_SOURCES = (
    ("UniProtAccession", "protein"),
    ("PIRAccession", "protein"),
    ("EMBLAccession", "dna"),
    ("GenBankAccession", "dna"),
    ("RefSeqNucleotideAccession", "dna"),
    ("KEGGGeneId", "dna"),
    ("EntrezGeneId", "dna"),
    ("EnsemblGeneId", "dna"),
)


def _biological_sequence_row() -> ModuleRow:
    """``GetBiologicalSequence`` (Figure 7): any protein or nucleotide
    database accession in, the corresponding raw sequence out.  Output is
    annotated ``BiologicalSequence`` but only protein and DNA sequences
    are ever emitted (output-partition shortfall)."""

    def branch_for(concept: str, kind: str) -> Branch:
        def transform(ctx: ModuleContext, inputs: dict[str, TypedValue]):
            entity = resolve_or_invalid(ctx, concept, inputs["id"].payload)
            if kind == "protein":
                sequence, emitted = entity.sequence, "ProteinSequence"
            else:
                sequence, emitted = entity.dna_sequence, "DNASequence"
            return {"sequence": TypedValue(sequence, STRING, emitted)}

        return Branch(
            label=f"sequence-from-{concept}",
            guard=valid_accession("id", concept),
            transform=transform,
        )

    return ModuleRow(
        module_id="ret.get_biological_sequence",
        name="GetBiologicalSequence",
        inputs=(Parameter("id", STRING, "SequenceDatabaseAccession"),),
        outputs=(Parameter("sequence", STRING, "BiologicalSequence"),),
        branches=tuple(branch_for(c, k) for c, k in _BIOSEQ_SOURCES),
        provider="DDBJ",
    )


def build_retrieval_modules():
    """Assemble the 51 data-retrieval modules (SOAP 30 / REST 12 / local 9)."""
    rows: list[ModuleRow] = [
        _leaf_retrieval(
            "ret.get_uniprot_record", "GetUniProtRecord", "UniProtAccession",
            "ProteinSequenceRecord", UNIPROT_FLAT, "EBI", popularity=6,
        ),
        _leaf_retrieval(
            "ret.get_uniprot_xml", "GetUniProtXML", "UniProtAccession",
            "ProteinSequenceRecord", XML, "EBI",
        ),
        _leaf_retrieval(
            "ret.get_pir_entry", "GetPIREntry", "PIRAccession",
            "ProteinSequenceRecord", UNIPROT_FLAT, "PIR",
        ),
        _leaf_retrieval(
            "ret.get_protein_fasta", "GetProteinFasta", "UniProtAccession",
            "ProteinSequenceRecord", FASTA, "EBI", popularity=4,
        ),
        _leaf_retrieval(
            "ret.fetch_embl_record", "FetchEMBLRecord", "EMBLAccession",
            "NucleotideSequenceRecord", EMBL_FLAT, "EBI", popularity=4,
        ),
        _leaf_retrieval(
            "ret.fetch_genbank_record", "FetchGenBankRecord", "GenBankAccession",
            "NucleotideSequenceRecord", GENBANK_FLAT, "NCBI", popularity=4,
        ),
        _leaf_retrieval(
            "ret.fetch_refseq_record", "FetchRefSeqRecord",
            "RefSeqNucleotideAccession", "NucleotideSequenceRecord",
            GENBANK_FLAT, "NCBI",
        ),
        _leaf_retrieval(
            "ret.get_nucleotide_fasta", "GetNucleotideFasta", "EMBLAccession",
            "NucleotideSequenceRecord", FASTA, "EBI",
        ),
        _leaf_retrieval(
            "ret.get_kegg_gene", "GetKEGGGene", "KEGGGeneId", "GeneRecord",
            KEGG_FLAT, "KEGG-REST", interface=REST, popularity=9,
        ),
        _leaf_retrieval(
            "ret.get_entrez_gene", "GetEntrezGene", "EntrezGeneId", "GeneRecord",
            XML, "NCBI",
        ),
        _leaf_retrieval(
            "ret.get_ensembl_gene", "GetEnsemblGene", "EnsemblGeneId", "GeneRecord",
            JSON_TEXT, "Ensembl", interface=REST,
        ),
        _leaf_retrieval(
            "ret.get_kegg_pathway", "GetKEGGPathway", "KEGGPathwayId",
            "PathwayRecord", KEGG_FLAT, "KEGG-REST", interface=REST, popularity=9,
        ),
        _leaf_retrieval(
            "ret.get_reactome_pathway", "GetReactomePathway", "ReactomePathwayId",
            "PathwayRecord", XML, "Reactome",
        ),
        _leaf_retrieval(
            "ret.get_enzyme_entry", "GetEnzymeEntry", "ECNumber", "EnzymeRecord",
            KEGG_FLAT, "KEGG-REST", interface=REST, popularity=7,
        ),
        _leaf_retrieval(
            "ret.get_kegg_compound", "GetKEGGCompound", "KEGGCompoundId",
            "CompoundRecord", KEGG_FLAT, "KEGG-REST", interface=REST, popularity=7,
        ),
        _leaf_retrieval(
            "ret.get_chebi_entry", "GetChEBIEntry", "ChEBIIdentifier",
            "CompoundRecord", XML, "EBI",
        ),
        _leaf_retrieval(
            "ret.get_pdb_entry", "GetPDBEntry", "PDBIdentifier", "StructureRecord",
            PDB_TEXT, "PDB", popularity=4,
        ),
        _leaf_retrieval(
            "ret.get_go_term_record", "GetGOTermRecord", "GOTermIdentifier",
            "OntologyTermRecord", OBO_TEXT, "GO", popularity=4,
        ),
        _leaf_retrieval(
            "ret.get_interpro_entry", "GetInterProEntry", "InterProIdentifier",
            "OntologyTermRecord", XML, "EBI",
        ),
        _leaf_retrieval(
            "ret.get_pubmed_abstract", "GetPubMedAbstract", "PubMedIdentifier",
            "LiteratureRecord", PLAIN_TEXT, "NCBI", popularity=4,
        ),
        _leaf_retrieval(
            "ret.get_doi_record", "GetDOIRecord", "DOIIdentifier",
            "LiteratureRecord", JSON_TEXT, "CrossRef", legible=False,
        ),
        _leaf_retrieval(
            "ret.get_glycan_entry", "GetGlycanEntry", "KEGGGlycanId",
            "GlycanRecord", KEGG_FLAT, "KEGG-REST", interface=REST, legible=False,
        ),
        _leaf_retrieval(
            "ret.get_ligand_entry", "GetLigandEntry", "LigandId", "LigandRecord",
            TABULAR, "LigandDB", legible=False,
        ),
        _leaf_retrieval(
            "ret.get_enzyme_xml", "GetEnzymeXML", "ECNumber", "EnzymeRecord",
            XML, "ExPASy", legible=False,
        ),
        _leaf_retrieval(
            "ret.get_gene_record_tab", "GetGeneRecordTab", "EntrezGeneId",
            "GeneRecord", TABULAR, "NCBI", legible=False,
        ),
        _leaf_retrieval(
            "ret.get_structure_json", "GetStructureJSON", "PDBIdentifier",
            "StructureRecord", JSON_TEXT, "PDB", legible=False,
        ),
        _leaf_retrieval(
            "ret.get_go_term_json", "GetGOTermJSON", "GOTermIdentifier",
            "OntologyTermRecord", JSON_TEXT, "GO", legible=False,
        ),
        _leaf_retrieval(
            "ret.get_publication_xml", "GetPublicationXML", "PubMedIdentifier",
            "LiteratureRecord", XML, "NCBI", legible=False,
        ),
        # Output annotated at the parent SequenceRecord concept, but only
        # protein records are ever emitted: output-partition shortfall.
        _leaf_retrieval(
            "ret.get_sequence_record", "GetSequenceRecord", "UniProtAccession",
            "ProteinSequenceRecord", UNIPROT_FLAT, "DDBJ",
            output_concept="SequenceRecord",
        ),
    ]

    # --- sequence extraction retrievals -------------------------------
    def seq_row(module_id, name, id_concept, attribute, emitted, provider,
                interface=None, popularity=1, transform_fn=None):
        def transform(ctx: ModuleContext, inputs: dict[str, TypedValue]):
            entity = resolve_or_invalid(ctx, id_concept, inputs["id"].payload)
            sequence = getattr(entity, attribute)
            if transform_fn is not None:
                sequence = transform_fn(ctx, entity, sequence)
            return {"sequence": TypedValue(sequence, STRING, emitted)}

        return ModuleRow(
            module_id=module_id,
            name=name,
            inputs=(Parameter("id", STRING, id_concept),),
            outputs=(Parameter("sequence", STRING, emitted),),
            branches=(
                Branch(
                    label=f"extract-{emitted}",
                    guard=valid_accession("id", id_concept),
                    transform=transform,
                ),
            ),
            provider=provider,
            interface=interface,
            popularity=popularity,
        )

    rows.extend(
        [
            seq_row(
                "ret.get_dna_sequence_embl", "GetDNASequenceEMBL", "EMBLAccession",
                "dna_sequence", "DNASequence", "EBI",
            ),
            seq_row(
                "ret.get_gene_dna", "GetGeneDNA", "KEGGGeneId", "dna_sequence",
                "DNASequence", "KEGG-REST", interface=REST, popularity=6,
            ),
            seq_row(
                "ret.get_gene_rna", "GetGeneRNA", "RefSeqNucleotideAccession",
                "dna_sequence", "RNASequence", "NCBI",
                transform_fn=lambda ctx, e, s: transcribe(s),
            ),
            seq_row(
                "ret.get_structure_sequence", "GetStructureSequence",
                "PDBIdentifier", "protein_ordinal", "ProteinSequence", "PDB",
                transform_fn=lambda ctx, e, o: ctx.universe.proteins[o].sequence,
            ),
        ]
    )
    rows.append(_biological_sequence_row())

    # --- text retrievals ------------------------------------------------
    def abstract_transform(ctx: ModuleContext, inputs: dict[str, TypedValue]):
        publication = resolve_or_invalid(ctx, "PubMedIdentifier", inputs["id"].payload)
        return {"text": TypedValue(publication.abstract, PLAIN_TEXT, "Abstract")}

    rows.append(
        ModuleRow(
            module_id="ret.get_abstract_text",
            name="GetAbstractText",
            inputs=(Parameter("id", STRING, "PubMedIdentifier"),),
            outputs=(Parameter("text", PLAIN_TEXT, "Abstract"),),
            branches=(
                Branch(
                    "retrieve-abstract",
                    valid_accession("id", "PubMedIdentifier"),
                    abstract_transform,
                ),
            ),
            provider="NCBI",
        )
    )

    def fulltext_transform(ctx: ModuleContext, inputs: dict[str, TypedValue]):
        publication = resolve_or_invalid(ctx, "DOIIdentifier", inputs["id"].payload)
        text = (
            f"{publication.title}\n\n{publication.abstract}\n\n"
            "Methods. Full synthetic methods section.\n"
        )
        return {"text": TypedValue(text, PLAIN_TEXT, "FullTextDocument")}

    rows.append(
        ModuleRow(
            module_id="ret.get_full_text",
            name="GetFullText",
            inputs=(Parameter("id", STRING, "DOIIdentifier"),),
            outputs=(Parameter("text", PLAIN_TEXT, "FullTextDocument"),),
            branches=(
                Branch(
                    "retrieve-fulltext",
                    valid_accession("id", "DOIIdentifier"),
                    fulltext_transform,
                ),
            ),
            provider="CrossRef",
        )
    )

    def pathway_description(ctx: ModuleContext, inputs: dict[str, TypedValue]):
        pathway = resolve_or_invalid(ctx, "KEGGPathwayId", inputs["id"].payload)
        text = f"{pathway.name}\n{pathway.description}\n"
        return {"record": TypedValue(text, PLAIN_TEXT, "PathwayRecord")}

    rows.append(
        ModuleRow(
            module_id="ret.get_pathway_description",
            name="GetPathwayDescription",
            inputs=(Parameter("id", STRING, "KEGGPathwayId"),),
            outputs=(Parameter("record", PLAIN_TEXT, "PathwayRecord"),),
            branches=(
                Branch(
                    "retrieve-pathway-description",
                    valid_accession("id", "KEGGPathwayId"),
                    pathway_description,
                ),
            ),
            provider="KEGG-REST",
            interface=REST,
        )
    )

    def genomic_record(ctx: ModuleContext, inputs: dict[str, TypedValue]):
        gene = resolve_or_invalid(ctx, "EnsemblGeneId", inputs["id"].payload)
        fields = records.gene_fields(ctx.universe, gene)
        return {
            "record": TypedValue(
                formats.render_embl_flat(fields), EMBL_FLAT, "NucleotideSequenceRecord"
            )
        }

    rows.append(
        ModuleRow(
            module_id="ret.get_genomic_record",
            name="GetGenomicRecord",
            inputs=(Parameter("id", STRING, "EnsemblGeneId"),),
            outputs=(Parameter("record", EMBL_FLAT, "NucleotideSequenceRecord"),),
            branches=(
                Branch(
                    "retrieve-genomic-record",
                    valid_accession("id", "EnsemblGeneId"),
                    genomic_record,
                ),
            ),
            provider="Ensembl",
        )
    )

    # --- binfo (paper-named output-coverage exception) -------------------
    _DATABASE_INFO = {
        "uniprot": "UniProt: the universal protein knowledgebase.",
        "embl": "EMBL-Bank: the European nucleotide archive.",
        "kegg": "KEGG: Kyoto Encyclopedia of Genes and Genomes.",
        "pdb": "PDB: the protein data bank.",
        "genbank": "GenBank: the NIH genetic sequence database.",
    }

    def binfo_transform(ctx: ModuleContext, inputs: dict[str, TypedValue]):
        name = inputs["database"].payload
        if name not in _DATABASE_INFO:
            raise InvalidInputError(f"binfo: unknown database {name!r}")
        text = (
            f"{_DATABASE_INFO[name]}\n\nRelease notes. Synthetic full "
            "documentation of the database content and statistics.\n"
        )
        return {"info": TypedValue(text, PLAIN_TEXT, "FullTextDocument")}

    rows.append(
        ModuleRow(
            module_id="ret.binfo",
            name="binfo",
            inputs=(Parameter("database", STRING, "DatabaseName"),),
            # Output annotated at the covered parent ScientificText: the
            # Abstract partition is never emitted (shortfall, §4.3).
            outputs=(Parameter("info", PLAIN_TEXT, "ScientificText"),),
            branches=(
                Branch(
                    "database-information",
                    lambda ctx, ins: isinstance(ins["database"].payload, str),
                    binfo_transform,
                ),
            ),
            provider="KEGG-REST",
            interface=REST,
            popularity=5,
        )
    )

    # --- the 12 over-partitioned (conciseness 0.5) retrievals -----------
    rows.extend(
        [
            _multi_scheme_retrieval(
                "ret.get_protein_record", "GetProteinRecord", "ProteinAccession",
                ("UniProtAccession", "PIRAccession"), "ProteinSequenceRecord",
                UNIPROT_FLAT, "EBI",
            ),
            _multi_scheme_retrieval(
                "ret.fetch_protein_entry", "FetchProteinEntry", "ProteinAccession",
                ("UniProtAccession", "PIRAccession"), "ProteinSequenceRecord",
                XML, "DDBJ",
            ),
            _multi_scheme_retrieval(
                "ret.retrieve_protein_fasta", "RetrieveProteinFasta",
                "ProteinAccession", ("UniProtAccession", "PIRAccession"),
                "ProteinSequenceRecord", FASTA, "NCBI",
            ),
            _multi_scheme_retrieval(
                "ret.get_pathway_record", "GetPathwayRecord", "PathwayIdentifier",
                ("KEGGPathwayId", "ReactomePathwayId"), "PathwayRecord",
                KEGG_FLAT, "KEGG-REST",
            ),
            _multi_scheme_retrieval(
                "ret.fetch_pathway_entry", "FetchPathwayEntry", "PathwayIdentifier",
                ("KEGGPathwayId", "ReactomePathwayId"), "PathwayRecord",
                XML, "Reactome",
            ),
            _multi_scheme_retrieval(
                "ret.retrieve_pathway_tab", "RetrievePathwayTab",
                "PathwayIdentifier", ("KEGGPathwayId", "ReactomePathwayId"),
                "PathwayRecord", TABULAR, "Manchester-lab",
            ),
            _multi_scheme_retrieval(
                "ret.get_compound_record", "GetCompoundRecord",
                "CompoundIdentifier", ("KEGGCompoundId", "ChEBIIdentifier"),
                "CompoundRecord", KEGG_FLAT, "KEGG-REST",
            ),
            _multi_scheme_retrieval(
                "ret.fetch_compound_entry", "FetchCompoundEntry",
                "CompoundIdentifier", ("KEGGCompoundId", "ChEBIIdentifier"),
                "CompoundRecord", XML, "EBI",
            ),
            _multi_scheme_retrieval(
                "ret.get_term_record", "GetTermRecord", "OntologyTermIdentifier",
                ("GOTermIdentifier", "InterProIdentifier"), "OntologyTermRecord",
                OBO_TEXT, "GO",
            ),
            _multi_scheme_retrieval(
                "ret.fetch_term_entry", "FetchTermEntry", "OntologyTermIdentifier",
                ("GOTermIdentifier", "InterProIdentifier"), "OntologyTermRecord",
                XML, "EBI",
            ),
            _multi_scheme_retrieval(
                "ret.get_citation", "GetCitation", "LiteratureIdentifier",
                ("PubMedIdentifier", "DOIIdentifier"), "LiteratureRecord",
                PLAIN_TEXT, "NCBI",
            ),
            _multi_scheme_retrieval(
                "ret.fetch_citation", "FetchCitation", "LiteratureIdentifier",
                ("PubMedIdentifier", "DOIIdentifier"), "LiteratureRecord",
                JSON_TEXT, "CrossRef",
            ),
        ]
    )

    return assemble(rows, Category.DATA_RETRIEVAL, n_soap=30, n_rest=12, n_local=9)
