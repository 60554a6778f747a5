"""Format-transformation modules (53, Table 3 — the classic Shims).

Transformation modules resolve representation mismatches between
independently developed modules (§5, [35]): they parse a record in one
flat-file format and render it in another, without consulting any
database.

Two sub-populations:

* 45 modules whose input record concept is a leaf
  (``ProteinSequenceRecord``, ``GeneRecord``, ...) — one partition, one
  class: complete and concise.
* 8 FASTA utilities whose input is annotated at the covered parent
  ``SequenceRecord``: the ontology splits their domain into protein and
  nucleotide records while the transformation is identical for both — one
  class over two partitions (the Table 2 conciseness-0.5 bucket).

``Fasta2PlainSeq`` additionally has an output annotated
``BiologicalSequence`` while only protein and DNA sequences are emitted —
one of the 19 output-coverage exceptions (§4.3).
"""

from __future__ import annotations

from typing import Callable

from repro.biodb import formats
from repro.biodb.sequences import classify_sequence
from repro.modules.behavior import Branch
from repro.modules.catalog.common import (
    ModuleRow,
    assemble,
    classify_or_invalid,
    text_startswith,
)
from repro.modules.errors import InvalidInputError
from repro.modules.model import Category, ModuleContext, Parameter
from repro.values import (
    CSV,
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

_PARSERS: dict[str, Callable[[str], dict[str, str]]] = {
    UNIPROT_FLAT.name: formats.parse_uniprot_flat,
    EMBL_FLAT.name: formats.parse_embl_flat,
    GENBANK_FLAT.name: formats.parse_genbank_flat,
    KEGG_FLAT.name: formats.parse_kegg_flat,
    PDB_TEXT.name: formats.parse_pdb_text,
    OBO_TEXT.name: formats.parse_obo_stanza,
    TABULAR.name: formats.parse_tabular,
    XML.name: formats.parse_xml,
    JSON_TEXT.name: formats.parse_json,
    FASTA.name: formats.parse_fasta,
    PLAIN_TEXT.name: formats.parse_medline,
}

_RENDERERS: dict[str, Callable[[dict[str, str]], str]] = {
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
    CSV.name: formats.render_csv,
}

#: Format sniffing markers used by transformation guards (black-box
#: modules inspect the text, not the annotations).
_MARKERS = {
    UNIPROT_FLAT.name: "ID   ",
    EMBL_FLAT.name: "ID   ",
    GENBANK_FLAT.name: "LOCUS",
    KEGG_FLAT.name: "ENTRY",
    PDB_TEXT.name: "HEADER",
    OBO_TEXT.name: "[Term]",
    XML.name: "<",
    JSON_TEXT.name: "{",
    FASTA.name: ">",
    PLAIN_TEXT.name: "PMID- ",
    TABULAR.name: "",
}


def _convert_row(
    module_id: str,
    name: str,
    concept: str,
    src: StructuralType,
    dst: StructuralType,
    provider: str,
    popularity: int = 1,
    output_concept: str | None = None,
    postprocess: Callable[[dict[str, str]], dict[str, str]] | None = None,
) -> ModuleRow:
    """A parse-then-render transformation between two formats of one
    record concept."""
    parse = _PARSERS[src.name]
    render = _RENDERERS[dst.name]

    def transform(ctx: ModuleContext, inputs: dict[str, TypedValue]):
        try:
            fields = parse(inputs["record"].payload)
        except (formats.FormatError, ValueError) as exc:
            raise InvalidInputError(f"{module_id}: cannot parse input: {exc}") from exc
        if postprocess is not None:
            fields = postprocess(fields)
        if dst in (EMBL_FLAT, GENBANK_FLAT, UNIPROT_FLAT, FASTA):
            fields.setdefault("sequence", "")
        return {
            "converted": TypedValue(render(fields), dst, output_concept or concept)
        }

    return ModuleRow(
        module_id=module_id,
        name=name,
        inputs=(Parameter("record", src, concept),),
        outputs=(Parameter("converted", dst, output_concept or concept),),
        branches=(
            Branch(
                label=f"convert-{src.name}-to-{dst.name}",
                guard=text_startswith("record", _MARKERS[src.name]),
                transform=transform,
            ),
        ),
        provider=provider,
        popularity=popularity,
    )


# ----------------------------------------------------------------------
# FASTA utilities over the covered SequenceRecord parent (conciseness 0.5)
# ----------------------------------------------------------------------
def _fasta_utility_row(
    module_id: str,
    name: str,
    dst: StructuralType,
    provider: str,
    rewrite: Callable[[dict[str, str]], str],
) -> ModuleRow:
    """A FASTA utility annotated at ``SequenceRecord``: protein and
    nucleotide FASTA records are processed identically (one class over the
    two ontology partitions)."""

    def transform(ctx: ModuleContext, inputs: dict[str, TypedValue]):
        try:
            fields = formats.parse_fasta(inputs["record"].payload)
        except formats.FormatError as exc:
            raise InvalidInputError(f"{module_id}: not FASTA: {exc}") from exc
        kind = classify_or_invalid(fields["sequence"])
        concept = (
            "ProteinSequenceRecord"
            if kind == "ProteinSequence"
            else "NucleotideSequenceRecord"
        )
        return {"converted": TypedValue(rewrite(fields), dst, concept)}

    return ModuleRow(
        module_id=module_id,
        name=name,
        inputs=(Parameter("record", FASTA, "SequenceRecord"),),
        outputs=(Parameter("converted", dst, "SequenceRecord"),),
        branches=(
            Branch(
                label="rewrite-fasta",
                guard=text_startswith("record", ">"),
                transform=transform,
            ),
        ),
        provider=provider,
    )


def _fasta_to_plain_row() -> ModuleRow:
    """``Fasta2PlainSeq``: strip the header, return the raw sequence.
    Output annotated ``BiologicalSequence`` but only protein and DNA
    sequences appear in practice (output-coverage shortfall)."""

    def transform(ctx: ModuleContext, inputs: dict[str, TypedValue]):
        try:
            fields = formats.parse_fasta(inputs["record"].payload)
        except formats.FormatError as exc:
            raise InvalidInputError(f"not FASTA: {exc}") from exc
        sequence = fields["sequence"]
        return {
            "sequence": TypedValue(sequence, STRING, classify_or_invalid(sequence))
        }

    return ModuleRow(
        module_id="xf.fasta_to_plain",
        name="Fasta2PlainSeq",
        inputs=(Parameter("record", FASTA, "SequenceRecord"),),
        outputs=(Parameter("sequence", STRING, "BiologicalSequence"),),
        branches=(
            Branch("strip-fasta-header", text_startswith("record", ">"), transform),
        ),
        provider="Manchester-lab",
    )


def build_transformation_modules():
    """Assemble the 53 format-transformation modules (SOAP 20 / REST 10 / local 23)."""
    P = "ProteinSequenceRecord"
    N = "NucleotideSequenceRecord"
    rows: list[ModuleRow] = [
        # --- protein records ------------------------------------------------
        _convert_row("xf.uniprot_to_fasta", "Uniprot2Fasta", P, UNIPROT_FLAT, FASTA,
                     "EBI", popularity=6),
        _convert_row("xf.uniprot_to_xml", "Uniprot2XML", P, UNIPROT_FLAT, XML, "EBI"),
        _convert_row("xf.uniprot_to_json", "Uniprot2JSON", P, UNIPROT_FLAT,
                     JSON_TEXT, "EBI"),
        _convert_row("xf.uniprot_to_tab", "Uniprot2Tab", P, UNIPROT_FLAT, TABULAR,
                     "Manchester-lab"),
        _convert_row("xf.uniprot_to_csv", "Uniprot2CSV", P, UNIPROT_FLAT, CSV,
                     "Manchester-lab"),
        _convert_row("xf.fasta_to_uniprot", "Fasta2Uniprot", P, FASTA, UNIPROT_FLAT,
                     "Manchester-lab"),
        _convert_row("xf.protein_xml_to_json", "ProteinXML2JSON", P, XML, JSON_TEXT,
                     "Manchester-lab"),
        _convert_row("xf.protein_json_to_xml", "ProteinJSON2XML", P, JSON_TEXT, XML,
                     "Manchester-lab"),
        # --- nucleotide records ----------------------------------------------
        _convert_row("xf.embl_to_fasta", "EMBL2Fasta", N, EMBL_FLAT, FASTA, "EBI",
                     popularity=5),
        _convert_row("xf.embl_to_genbank", "EMBL2GenBank", N, EMBL_FLAT,
                     GENBANK_FLAT, "EBI", popularity=4),
        _convert_row("xf.genbank_to_embl", "GenBank2EMBL", N, GENBANK_FLAT,
                     EMBL_FLAT, "NCBI", popularity=4),
        _convert_row("xf.genbank_to_fasta", "GenBank2Fasta", N, GENBANK_FLAT, FASTA,
                     "NCBI"),
        _convert_row("xf.embl_to_xml", "EMBL2XML", N, EMBL_FLAT, XML, "EBI"),
        _convert_row("xf.genbank_to_json", "GenBank2JSON", N, GENBANK_FLAT,
                     JSON_TEXT, "NCBI"),
        _convert_row("xf.embl_to_tab", "EMBL2Tab", N, EMBL_FLAT, TABULAR,
                     "Manchester-lab"),
        _convert_row("xf.fasta_to_embl", "Fasta2EMBL", N, FASTA, EMBL_FLAT,
                     "Manchester-lab"),
        # --- KEGG flat records -------------------------------------------------
        _convert_row("xf.kegg_gene_to_xml", "KeggGene2XML", "GeneRecord", KEGG_FLAT,
                     XML, "KEGG-mirror"),
        _convert_row("xf.kegg_gene_to_json", "KeggGene2JSON", "GeneRecord",
                     KEGG_FLAT, JSON_TEXT, "KEGG-mirror"),
        _convert_row("xf.kegg_gene_to_tab", "KeggGene2Tab", "GeneRecord", KEGG_FLAT,
                     TABULAR, "Manchester-lab"),
        _convert_row("xf.kegg_pathway_to_xml", "KeggPathway2XML", "PathwayRecord",
                     KEGG_FLAT, XML, "KEGG-mirror"),
        _convert_row("xf.kegg_pathway_to_json", "KeggPathway2JSON", "PathwayRecord",
                     KEGG_FLAT, JSON_TEXT, "KEGG-mirror"),
        _convert_row("xf.kegg_enzyme_to_xml", "KeggEnzyme2XML", "EnzymeRecord",
                     KEGG_FLAT, XML, "KEGG-mirror"),
        _convert_row("xf.kegg_enzyme_to_tab", "KeggEnzyme2Tab", "EnzymeRecord",
                     KEGG_FLAT, TABULAR, "Manchester-lab"),
        _convert_row("xf.kegg_compound_to_xml", "KeggCompound2XML",
                     "CompoundRecord", KEGG_FLAT, XML, "KEGG-mirror"),
        _convert_row("xf.kegg_compound_to_json", "KeggCompound2JSON",
                     "CompoundRecord", KEGG_FLAT, JSON_TEXT, "KEGG-mirror"),
        _convert_row("xf.kegg_glycan_to_tab", "KeggGlycan2Tab", "GlycanRecord",
                     KEGG_FLAT, TABULAR, "KEGG-mirror"),
        # --- structures ------------------------------------------------------------
        _convert_row("xf.pdb_to_fasta", "PDB2Fasta", "StructureRecord", PDB_TEXT,
                     FASTA, "PDB", output_concept="ProteinSequenceRecord"),
        _convert_row("xf.pdb_to_json", "PDB2JSON", "StructureRecord", PDB_TEXT,
                     JSON_TEXT, "PDB"),
        _convert_row("xf.pdb_to_tab", "PDB2Tab", "StructureRecord", PDB_TEXT,
                     TABULAR, "PDB"),
        # --- ontology terms ----------------------------------------------------------
        _convert_row("xf.obo_to_tab", "OBO2Tab", "OntologyTermRecord", OBO_TEXT,
                     TABULAR, "GO"),
        _convert_row("xf.obo_to_json", "OBO2JSON", "OntologyTermRecord", OBO_TEXT,
                     JSON_TEXT, "GO"),
        _convert_row("xf.obo_to_xml", "OBO2XML", "OntologyTermRecord", OBO_TEXT,
                     XML, "GO"),
        # --- literature -----------------------------------------------------------------
        _convert_row("xf.medline_to_json", "Medline2JSON", "LiteratureRecord",
                     PLAIN_TEXT, JSON_TEXT, "NCBI"),
        _convert_row("xf.medline_to_tab", "Medline2Tab", "LiteratureRecord",
                     PLAIN_TEXT, TABULAR, "NCBI"),
        _convert_row("xf.medline_to_xml", "Medline2XML", "LiteratureRecord",
                     PLAIN_TEXT, XML, "NCBI"),
        # --- annotation sets & expression tables -------------------------------------------
        _convert_row("xf.goset_to_csv", "GoSet2CSV", "GOAnnotationSet", TABULAR,
                     CSV, "GO"),
        _convert_row("xf.goset_to_xml", "GoSet2XML", "GOAnnotationSet", TABULAR,
                     XML, "GO"),
        _convert_row("xf.keywordset_to_csv", "KeywordSet2CSV", "KeywordSet",
                     TABULAR, CSV, "Manchester-lab"),
        _convert_row("xf.pathwayset_to_xml", "PathwaySet2XML", "PathwayConceptSet",
                     TABULAR, XML, "Manchester-lab"),
        _convert_row("xf.expression_to_csv", "Expression2CSV", "ExpressionMatrix",
                     TABULAR, CSV, "Manchester-lab"),
        _convert_row("xf.microarray_to_xml", "Microarray2XML", "MicroarrayData",
                     TABULAR, XML, "Manchester-lab"),
    ]

    # --- special-purpose clean transformations -----------------------------
    def clustal_to_fasta(ctx: ModuleContext, inputs: dict[str, TypedValue]):
        lines = [
            line
            for line in inputs["record"].payload.splitlines()[1:]
            if line.strip()
        ]
        if not lines:
            raise InvalidInputError("empty alignment")
        blocks = []
        for line in lines:
            parts = line.split()
            if len(parts) < 2:
                raise InvalidInputError(f"not a CLUSTAL row: {line!r}")
            name_part = "_".join(parts[:-1])
            aligned = parts[-1]
            blocks.append(f">{name_part}\n{aligned}")
        return {
            "converted": TypedValue(
                "\n".join(blocks) + "\n", FASTA, "MultipleAlignmentReport"
            )
        }

    rows.append(
        ModuleRow(
            module_id="xf.clustal_to_fasta",
            name="Clustal2Fasta",
            inputs=(Parameter("record", PLAIN_TEXT, "MultipleAlignmentReport"),),
            outputs=(Parameter("converted", FASTA, "MultipleAlignmentReport"),),
            branches=(
                Branch(
                    "alignment-to-fasta",
                    text_startswith("record", "CLUSTAL"),
                    clustal_to_fasta,
                ),
            ),
            provider="EBI",
        )
    )

    def protein_fasta_strip(ctx: ModuleContext, inputs: dict[str, TypedValue]):
        try:
            fields = formats.parse_fasta(inputs["record"].payload)
        except formats.FormatError as exc:
            raise InvalidInputError(str(exc)) from exc
        if classify_sequence(fields["sequence"]) != "ProteinSequence":
            raise InvalidInputError("not a protein FASTA record")
        return {"sequence": TypedValue(fields["sequence"], STRING, "ProteinSequence")}

    rows.append(
        ModuleRow(
            module_id="xf.protein_fasta_to_seq",
            name="ProteinFasta2Seq",
            inputs=(Parameter("record", FASTA, "ProteinSequenceRecord"),),
            outputs=(Parameter("sequence", STRING, "ProteinSequence"),),
            branches=(
                Branch(
                    "protein-fasta-to-sequence",
                    text_startswith("record", ">"),
                    protein_fasta_strip,
                ),
            ),
            provider="Manchester-lab",
        )
    )

    def seq_to_fasta(ctx: ModuleContext, inputs: dict[str, TypedValue]):
        sequence = inputs["sequence"].payload
        if classify_or_invalid(sequence) != "ProteinSequence":
            raise InvalidInputError("not a protein sequence")
        text = formats.render_fasta(
            {"accession": "QUERY", "description": "user sequence", "sequence": sequence}
        )
        return {"record": TypedValue(text, FASTA, "ProteinSequenceRecord")}

    rows.append(
        ModuleRow(
            module_id="xf.seq_to_fasta",
            name="Seq2Fasta",
            inputs=(Parameter("sequence", STRING, "ProteinSequence"),),
            outputs=(Parameter("record", FASTA, "ProteinSequenceRecord"),),
            branches=(
                Branch(
                    "sequence-to-fasta",
                    lambda ctx, ins: isinstance(ins["sequence"].payload, str),
                    seq_to_fasta,
                ),
            ),
            provider="Manchester-lab",
        )
    )

    def homology_to_csv(ctx: ModuleContext, inputs: dict[str, TypedValue]):
        hits = {}
        for line in inputs["record"].payload.splitlines():
            if line.startswith("#") or not line.strip():
                continue
            cells = line.split("\t")
            if len(cells) != 3:
                raise InvalidInputError(f"not a homology report row: {line!r}")
            hits[cells[0]] = f"{cells[1]} (score {cells[2]})"
        if not hits:
            raise InvalidInputError("homology report contains no hits")
        return {
            "converted": TypedValue(
                formats.render_csv(hits), CSV, "HomologySearchReport"
            )
        }

    rows.append(
        ModuleRow(
            module_id="xf.homology_to_csv",
            name="Homology2CSV",
            inputs=(Parameter("record", TABULAR, "HomologySearchReport"),),
            outputs=(Parameter("converted", CSV, "HomologySearchReport"),),
            branches=(
                Branch(
                    "homology-report-to-csv",
                    text_startswith("record", "#"),
                    homology_to_csv,
                ),
            ),
            provider="Manchester-lab",
        )
    )

    # --- the 8 over-partitioned FASTA utilities + shortfall strip ------------
    def rewrap(fields: dict[str, str]) -> str:
        return formats.render_fasta(fields)

    def upper(fields: dict[str, str]) -> str:
        fields = dict(fields, sequence=fields["sequence"].upper())
        return formats.render_fasta(fields)

    def clean_header(fields: dict[str, str]) -> str:
        fields = dict(fields, description="")
        return formats.render_fasta(fields)

    rows.extend(
        [
            _fasta_utility_row("xf.fasta_to_tab", "Fasta2Tab", TABULAR,
                               "Manchester-lab", formats.render_tabular),
            _fasta_utility_row("xf.fasta_to_xml", "Fasta2XML", XML,
                               "Manchester-lab", formats.render_xml),
            _fasta_utility_row("xf.fasta_to_json", "Fasta2JSON", JSON_TEXT,
                               "Manchester-lab", formats.render_json),
            _fasta_utility_row("xf.fasta_to_csv", "Fasta2CSV", CSV,
                               "Manchester-lab", formats.render_csv),
            _fasta_utility_row("xf.fasta_rewrap", "FastaRewrap", FASTA, "EBI",
                               rewrap),
            _fasta_utility_row("xf.fasta_uppercase", "FastaUppercase", FASTA,
                               "EBI", upper),
            _fasta_utility_row("xf.fasta_header_clean", "FastaHeaderClean", FASTA,
                               "EBI", clean_header),
        ]
    )
    rows.append(_fasta_to_plain_row())

    return assemble(
        rows, Category.FORMAT_TRANSFORMATION, n_soap=20, n_rest=10, n_local=23
    )
