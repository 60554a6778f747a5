"""Data-analysis modules (59, Table 3 — the most opaque category).

Analysis modules run alignments, searches, sequence statistics, text
mining and expression analyses.  The category carries most of the paper's
measured imperfections:

* 34 clean modules (alignment, translation, text mining, expression) —
  among them the Figure 1 modules ``Identify`` and ``SearchSimple`` and
  the paper-named ``GetConcept`` text-mining module.  Five of them
  (``BlastAny``, ``AlignPair``, ``ComputeStats``, ``MineText``,
  ``Identify``) have outputs annotated at covered parents and belong to
  the 19-module output-coverage tail.
* 4 modules at completeness 5/8 = 0.625: five per-kind classes are
  exhibited, but three *hidden* classes (degenerate, oversized and gapped
  inputs) are invisible to one-realization-per-partition sampling (§4,
  Table 1 under-partitioning).
* conciseness tail from over-partitioning (§4, Table 2): 4 modules at
  2/5 = 0.4, 4 at 1/3 ≈ 0.33, 8 at 1/5 = 0.2, 4 at 1/6 ≈ 0.17 and one at
  1/10 = 0.1.

Per the §5 user study, only six analysis modules are *legible* (their
data examples reveal the behavior to a human): the four elementary
sequence transformations plus ``SequenceLength`` and ``ReverseSequence``.
"""

from __future__ import annotations

import hashlib
import math

from repro.biodb import reports
from repro.biodb.accessions import scheme_for
from repro.biodb.expression import differential_report, normalize_expression
from repro.biodb.sequences import (
    back_transcribe,
    digest,
    gc_content,
    molecular_weight,
    peptide_masses,
    reverse_complement,
    transcribe,
    translate,
)
from repro.modules.behavior import Branch
from repro.modules.catalog.common import (
    ModuleRow,
    assemble,
    payload_predicate,
    resolve_or_invalid,
    sequence_kind,
    text_startswith,
)
from repro.modules.errors import InvalidInputError
from repro.modules.model import Category, ModuleContext, Parameter
from repro.values import (
    FLOAT,
    NEWICK,
    PLAIN_TEXT,
    STRING,
    TABULAR,
    UNIPROT_FLAT,
    TypedValue,
    list_of,
)

LIST_STRING = list_of(STRING)
LIST_FLOAT = list_of(FLOAT)

_NUCLEOTIDE_KINDS = ("DNASequence", "RNASequence", "NucleotideSequence")
_ALL_KINDS = _NUCLEOTIDE_KINDS + ("ProteinSequence", "BiologicalSequence")


def _resolve_organism(ctx: ModuleContext, value: TypedValue) -> int:
    """Resolve an OrganismIdentifier value (taxon id or name) to its
    organism ordinal."""
    payload = value.payload
    for concept in ("NCBITaxonId", "ScientificOrganismName"):
        if scheme_for(concept).is_valid(payload):
            return resolve_or_invalid(ctx, concept, payload)
    raise InvalidInputError(f"unrecognized organism {payload!r}")


def _organism_guard(parameter: str):
    def guard(_ctx, inputs):
        value = inputs.get(parameter)
        if value is None or not isinstance(value.payload, str):
            return False
        return scheme_for("NCBITaxonId").is_valid(value.payload) or scheme_for(
            "ScientificOrganismName"
        ).is_valid(value.payload)

    return guard


def _stats_value(name: str, rows: dict[str, object]) -> TypedValue:
    text = "\n".join(f"{key}\t{value}" for key, value in rows.items()) + "\n"
    return TypedValue(text, TABULAR, name)


# ----------------------------------------------------------------------
# Clean analysis modules
# ----------------------------------------------------------------------
def _sequence_op_row(
    module_id, name, src_kind, dst_concept, op, provider, legible=False, popularity=1
):
    """A single-class sequence operation over a leaf sequence concept."""

    def transform(ctx: ModuleContext, inputs: dict[str, TypedValue]):
        return {"result": TypedValue(op(inputs["sequence"].payload), STRING, dst_concept)}

    return ModuleRow(
        module_id=module_id,
        name=name,
        inputs=(Parameter("sequence", STRING, src_kind),),
        outputs=(Parameter("result", STRING, dst_concept),),
        branches=(
            Branch(
                label=f"{module_id.split('.')[-1]}",
                guard=sequence_kind("sequence", (src_kind,)),
                transform=transform,
            ),
        ),
        provider=provider,
        legible=legible,
        popularity=popularity,
    )


def _homology_search(ctx: ModuleContext, sequence: str, database: str, program: str):
    """Shared homology-search core: the five universe proteins that score
    best against the query with the toy alignment score."""
    hits = [
        (p.uniprot, p.name, score)
        for p, score in ctx.universe.rank_by_alignment(sequence, 5)
    ]
    return reports.render_homology_report("query", hits, database, program)


def build_analysis_modules():
    """Assemble the 59 data-analysis modules (SOAP 30 / REST 16 / local 13)."""
    rows: list[ModuleRow] = []

    # --- Figure 1 modules -------------------------------------------------
    def identify_transform(ctx: ModuleContext, inputs: dict[str, TypedValue]):
        masses = list(inputs["masses"].payload)
        protein = ctx.universe.identify_by_peptide_masses(masses)
        if protein is None:
            raise InvalidInputError("no protein matches the peptide masses")
        return {"accession": TypedValue(protein.uniprot, STRING, "UniProtAccession")}

    rows.append(
        ModuleRow(
            module_id="an.identify",
            name="Identify",
            inputs=(
                Parameter("masses", LIST_FLOAT, "PeptideMassList"),
                Parameter("tolerance", FLOAT, "ErrorTolerance"),
            ),
            # Output annotated at the covered ProteinAccession parent while
            # only UniProt accessions are emitted (output shortfall, §4.3).
            outputs=(Parameter("accession", STRING, "ProteinAccession"),),
            branches=(
                Branch(
                    "peptide-mass-fingerprint",
                    payload_predicate("masses", lambda m: len(m) > 0),
                    identify_transform,
                ),
            ),
            provider="Manchester-lab",
            popularity=4,
            legible=False,
        )
    )

    def search_simple(ctx: ModuleContext, inputs: dict[str, TypedValue]):
        from repro.biodb.formats import parse_uniprot_flat

        fields = parse_uniprot_flat(inputs["record"].payload)
        report = _homology_search(
            ctx, fields["sequence"], inputs["database"].payload,
            inputs["program"].payload,
        )
        return {"report": TypedValue(report, TABULAR, "HomologySearchReport")}

    rows.append(
        ModuleRow(
            module_id="an.search_simple",
            name="SearchSimple",
            inputs=(
                Parameter("record", UNIPROT_FLAT, "ProteinSequenceRecord"),
                Parameter("program", STRING, "AlignmentProgramName"),
                Parameter("database", STRING, "DatabaseName"),
            ),
            outputs=(Parameter("report", TABULAR, "HomologySearchReport"),),
            branches=(
                Branch(
                    "homology-search-record",
                    text_startswith("record", "ID   "),
                    search_simple,
                ),
            ),
            provider="EBI",
            popularity=4,
            legible=False,
        )
    )

    # --- homology searches -------------------------------------------------
    def blast_row(module_id, name, kind, provider, annotated_output, emitted,
                  popularity=1, with_database=True):
        inputs = [Parameter("sequence", STRING, kind)]
        if with_database:
            inputs.append(Parameter("database", STRING, "DatabaseName"))

        def transform(ctx: ModuleContext, ins: dict[str, TypedValue]):
            database = ins["database"].payload if with_database else "uniprot"
            report = _homology_search(ctx, ins["sequence"].payload, database, name.lower())
            return {"report": TypedValue(report, TABULAR, emitted)}

        return ModuleRow(
            module_id=module_id,
            name=name,
            inputs=tuple(inputs),
            outputs=(Parameter("report", TABULAR, annotated_output),),
            branches=(
                Branch("homology-search", sequence_kind("sequence", (kind,)), transform),
            ),
            provider=provider,
            popularity=popularity,
            legible=False,
        )

    rows.append(blast_row("an.blastp", "BlastPSearch", "ProteinSequence", "EBI",
                          "HomologySearchReport", "HomologySearchReport", popularity=6))
    rows.append(blast_row("an.blastn", "BlastNSearch", "DNASequence", "NCBI",
                          "HomologySearchReport", "HomologySearchReport", popularity=4))
    # Output annotated at the covered SearchReport parent (shortfall).
    rows.append(blast_row("an.blast_any", "BlastAny", "ProteinSequence", "DDBJ",
                          "SearchReport", "HomologySearchReport", with_database=False))

    # --- pairwise alignments -------------------------------------------------
    def pairwise_row(module_id, name, provider, annotated_output, program):
        def transform(ctx: ModuleContext, ins: dict[str, TypedValue]):
            text = reports.render_pairwise_alignment(
                "seqA", ins["first"].payload, "seqB", ins["second"].payload, program
            )
            return {"alignment": TypedValue(text, PLAIN_TEXT, "PairwiseAlignmentReport")}

        return ModuleRow(
            module_id=module_id,
            name=name,
            inputs=(
                Parameter("first", STRING, "ProteinSequence"),
                Parameter("second", STRING, "ProteinSequence"),
            ),
            outputs=(Parameter("alignment", PLAIN_TEXT, annotated_output),),
            branches=(
                Branch(
                    "pairwise-alignment",
                    lambda ctx, ins: all(
                        isinstance(ins[k].payload, str) for k in ("first", "second")
                    ),
                    transform,
                ),
            ),
            provider=provider,
            legible=False,
        )

    rows.append(pairwise_row("an.smith_waterman", "SmithWatermanAlign", "EBI",
                             "PairwiseAlignmentReport", "water"))
    rows.append(pairwise_row("an.needleman", "NeedlemanAlign", "EBI",
                             "PairwiseAlignmentReport", "needle"))
    # Output annotated at the covered AlignmentReport parent (shortfall).
    rows.append(pairwise_row("an.align_pair", "AlignPair", "DDBJ",
                             "AlignmentReport", "align"))

    # --- multiple alignments & trees --------------------------------------------
    def multiple_row(module_id, name, provider):
        def transform(ctx: ModuleContext, ins: dict[str, TypedValue]):
            entries = [
                (f"seq{i + 1}", sequence)
                for i, sequence in enumerate(ins["sequences"].payload)
            ]
            text = reports.render_multiple_alignment(entries)
            return {"alignment": TypedValue(text, PLAIN_TEXT, "MultipleAlignmentReport")}

        return ModuleRow(
            module_id=module_id,
            name=name,
            inputs=(Parameter("sequences", LIST_STRING, "ProteinSequence"),),
            outputs=(Parameter("alignment", PLAIN_TEXT, "MultipleAlignmentReport"),),
            branches=(
                Branch(
                    "multiple-alignment",
                    payload_predicate("sequences", lambda seqs: len(seqs) >= 2),
                    transform,
                ),
            ),
            provider=provider,
            legible=False,
        )

    rows.append(multiple_row("an.clustal", "ClustalMultiple", "EBI"))
    rows.append(multiple_row("an.muscle", "MuscleMultiple", "EBI"))

    def phylo_tree(ctx: ModuleContext, ins: dict[str, TypedValue]):
        leaves = [
            line.split()[0]
            for line in ins["alignment"].payload.splitlines()[2:]
            if line.strip()
        ]
        if len(leaves) < 2:
            raise InvalidInputError("alignment has fewer than two sequences")
        return {
            "tree": TypedValue(reports.render_newick(leaves), NEWICK, "PhylogeneticTree")
        }

    rows.append(
        ModuleRow(
            module_id="an.build_phylo_tree",
            name="BuildPhyloTree",
            inputs=(Parameter("alignment", PLAIN_TEXT, "MultipleAlignmentReport"),),
            outputs=(Parameter("tree", NEWICK, "PhylogeneticTree"),),
            branches=(
                Branch("tree-from-alignment", text_startswith("alignment", "CLUSTAL"),
                       phylo_tree),
            ),
            provider="EBI",
            legible=False,
        )
    )

    def nj_tree(ctx: ModuleContext, ins: dict[str, TypedValue]):
        leaves = [f"seq{i + 1}" for i in range(len(ins["sequences"].payload))]
        return {
            "tree": TypedValue(reports.render_newick(leaves), NEWICK, "PhylogeneticTree")
        }

    rows.append(
        ModuleRow(
            module_id="an.nj_tree",
            name="NeighborJoiningTree",
            inputs=(Parameter("sequences", LIST_STRING, "ProteinSequence"),),
            outputs=(Parameter("tree", NEWICK, "PhylogeneticTree"),),
            branches=(
                Branch(
                    "nj-tree",
                    payload_predicate("sequences", lambda seqs: len(seqs) >= 2),
                    nj_tree,
                ),
            ),
            provider="Manchester-lab",
            legible=False,
        )
    )

    # --- motif scans -------------------------------------------------------------
    def motif_row(module_id, name, provider, motifs):
        def transform(ctx: ModuleContext, ins: dict[str, TypedValue]):
            sequence = ins["sequence"].payload
            hits = [
                (motif, sequence.find(residue) + 1)
                for motif, residue in motifs
                if residue in sequence
            ]
            text = reports.render_motif_report("query", hits)
            return {"report": TypedValue(text, TABULAR, "MotifSearchReport")}

        return ModuleRow(
            module_id=module_id,
            name=name,
            inputs=(Parameter("sequence", STRING, "ProteinSequence"),),
            outputs=(Parameter("report", TABULAR, "MotifSearchReport"),),
            branches=(
                Branch("motif-scan", sequence_kind("sequence", ("ProteinSequence",)),
                       transform),
            ),
            provider=provider,
            legible=False,
        )

    rows.append(motif_row("an.motif_scan", "MotifScanProtein", "EBI",
                          (("N-GLYC", "N"), ("CK2-PHOSPHO", "S"))))
    rows.append(motif_row("an.prosite_scan", "PrositeScan", "ExPASy",
                          (("PKC-PHOSPHO", "T"), ("MYRISTYL", "G"))))

    # --- elementary sequence transformations (the legible six, part 1) ---------
    rows.append(_sequence_op_row("an.translate_dna", "TranslateDNA", "DNASequence",
                                 "ProteinSequence", translate, "EBI", legible=True,
                                 popularity=5))
    rows.append(_sequence_op_row("an.transcribe_dna", "TranscribeDNA", "DNASequence",
                                 "RNASequence", transcribe, "EBI", legible=True))
    rows.append(_sequence_op_row("an.back_transcribe", "BackTranscribe", "RNASequence",
                                 "DNASequence", back_transcribe, "EBI", legible=True))
    rows.append(_sequence_op_row("an.reverse_complement", "ReverseComplement",
                                 "DNASequence", "DNASequence", reverse_complement,
                                 "EBI", legible=True))

    def find_orfs(ctx: ModuleContext, ins: dict[str, TypedValue]):
        dna = ins["sequence"].payload
        proteins = tuple(
            translate(dna[offset:]) for offset in range(2) if len(dna) > offset + 1
        )
        return {"orfs": TypedValue(proteins, LIST_STRING, "ProteinSequence")}

    rows.append(
        ModuleRow(
            module_id="an.find_orfs",
            name="FindORFs",
            inputs=(Parameter("sequence", STRING, "DNASequence"),),
            outputs=(Parameter("orfs", LIST_STRING, "ProteinSequence"),),
            branches=(
                Branch("find-orfs", sequence_kind("sequence", ("DNASequence",)),
                       find_orfs),
            ),
            provider="Manchester-lab",
            legible=False,
        )
    )

    def digest_protein(ctx: ModuleContext, ins: dict[str, TypedValue]):
        masses = tuple(peptide_masses(ins["sequence"].payload))
        if not masses:
            raise InvalidInputError("no peptides produced")
        return {"masses": TypedValue(masses, LIST_FLOAT, "PeptideMassList")}

    rows.append(
        ModuleRow(
            module_id="an.digest_protein",
            name="DigestProtein",
            inputs=(Parameter("sequence", STRING, "ProteinSequence"),),
            outputs=(Parameter("masses", LIST_FLOAT, "PeptideMassList"),),
            branches=(
                Branch("tryptic-digest", sequence_kind("sequence", ("ProteinSequence",)),
                       digest_protein),
            ),
            provider="ExPASy",
            legible=False,
        )
    )

    # --- statistics reports -------------------------------------------------------
    def stats_row(module_id, name, kind, provider, annotated_output):
        def transform(ctx: ModuleContext, ins: dict[str, TypedValue]):
            text = reports.render_sequence_statistics("query", ins["sequence"].payload)
            return {"report": TypedValue(text, TABULAR, "SequenceStatisticsReport")}

        return ModuleRow(
            module_id=module_id,
            name=name,
            inputs=(Parameter("sequence", STRING, kind),),
            outputs=(Parameter("report", TABULAR, annotated_output),),
            branches=(
                Branch("sequence-statistics", sequence_kind("sequence", (kind,)),
                       transform),
            ),
            provider=provider,
            legible=False,
        )

    rows.append(stats_row("an.protein_stats", "ProteinStats", "ProteinSequence",
                          "ExPASy", "SequenceStatisticsReport"))
    rows.append(stats_row("an.dna_stats", "DNAStats", "DNASequence", "EBI",
                          "SequenceStatisticsReport"))
    # Output annotated at the covered StatisticsReport parent (shortfall).
    rows.append(stats_row("an.compute_stats", "ComputeStats", "ProteinSequence",
                          "DDBJ", "StatisticsReport"))

    def secondary_structure(ctx: ModuleContext, ins: dict[str, TypedValue]):
        sequence = ins["sequence"].payload
        helix = sum(sequence.count(r) for r in "AEHLM") / max(1, len(sequence))
        sheet = sum(sequence.count(r) for r in "FIVWY") / max(1, len(sequence))
        return {
            "report": _stats_value(
                "SequenceStatisticsReport",
                {"helix_propensity": f"{helix:.3f}", "sheet_propensity": f"{sheet:.3f}"},
            )
        }

    rows.append(
        ModuleRow(
            module_id="an.secondary_structure",
            name="PredictSecondaryStructure",
            inputs=(Parameter("sequence", STRING, "ProteinSequence"),),
            outputs=(Parameter("report", TABULAR, "SequenceStatisticsReport"),),
            branches=(
                Branch("secondary-structure",
                       sequence_kind("sequence", ("ProteinSequence",)),
                       secondary_structure),
            ),
            provider="EBI",
            legible=False,
        )
    )

    def hydrophobicity(ctx: ModuleContext, ins: dict[str, TypedValue]):
        sequence = ins["sequence"].payload
        hydrophobic = sum(sequence.count(r) for r in "AFILMVWY")
        return {
            "report": _stats_value(
                "SequenceStatisticsReport",
                {
                    "hydrophobic_fraction": f"{hydrophobic / max(1, len(sequence)):.3f}",
                    "length": str(len(sequence)),
                },
            )
        }

    rows.append(
        ModuleRow(
            module_id="an.hydrophobicity",
            name="HydrophobicityProfile",
            inputs=(Parameter("sequence", STRING, "ProteinSequence"),),
            outputs=(Parameter("report", TABULAR, "SequenceStatisticsReport"),),
            branches=(
                Branch("hydrophobicity-profile",
                       sequence_kind("sequence", ("ProteinSequence",)),
                       hydrophobicity),
            ),
            provider="ExPASy",
            legible=False,
        )
    )

    # --- text mining ----------------------------------------------------------------
    def mine_pathways(ctx: ModuleContext, text: str) -> dict[str, str]:
        found = {
            pathway.kegg_id: pathway.name
            for pathway in ctx.universe.pathways
            if pathway.kegg_id in text or pathway.name in text
        }
        if not found:
            raise InvalidInputError("no pathway concepts found in text")
        return found

    def get_concept(ctx: ModuleContext, ins: dict[str, TypedValue]):
        found = mine_pathways(ctx, ins["text"].payload)
        return {"concepts": _stats_value("PathwayConceptSet", found)}

    rows.append(
        ModuleRow(
            module_id="an.get_concept",
            name="GetConcept",
            inputs=(Parameter("text", PLAIN_TEXT, "Abstract"),),
            outputs=(Parameter("concepts", TABULAR, "PathwayConceptSet"),),
            branches=(
                Branch("mine-pathway-concepts",
                       payload_predicate("text", lambda t: len(t) > 20),
                       get_concept),
            ),
            provider="Manchester-lab",
            legible=False,
        )
    )

    def extract_keywords(ctx: ModuleContext, ins: dict[str, TypedValue]):
        words = [w.strip(".,()") for w in ins["text"].payload.split()]
        keywords = {}
        for word in words:
            if len(word) > 7 and word.islower():
                keywords[f"kw{len(keywords) + 1}"] = word
            if len(keywords) >= 5:
                break
        if not keywords:
            raise InvalidInputError("no keywords extracted")
        return {"keywords": _stats_value("KeywordSet", keywords)}

    rows.append(
        ModuleRow(
            module_id="an.extract_keywords",
            name="ExtractKeywords",
            inputs=(Parameter("text", PLAIN_TEXT, "Abstract"),),
            outputs=(Parameter("keywords", TABULAR, "KeywordSet"),),
            branches=(
                Branch("extract-keywords",
                       payload_predicate("text", lambda t: len(t) > 20),
                       extract_keywords),
            ),
            provider="Manchester-lab",
            legible=False,
        )
    )

    def mine_proteins(ctx: ModuleContext, ins: dict[str, TypedValue]):
        scheme = scheme_for("UniProtAccession")
        mentions = tuple(
            sorted(
                {
                    word.strip("().,")
                    for word in ins["text"].payload.split()
                    if scheme.is_valid(word.strip("().,"))
                }
            )
        )
        if not mentions:
            raise InvalidInputError("no protein mentions found")
        return {"proteins": TypedValue(mentions, LIST_STRING, "UniProtAccession")}

    rows.append(
        ModuleRow(
            module_id="an.mine_protein_mentions",
            name="MineProteinMentions",
            inputs=(Parameter("text", PLAIN_TEXT, "Abstract"),),
            outputs=(Parameter("proteins", LIST_STRING, "UniProtAccession"),),
            branches=(
                Branch("mine-protein-mentions",
                       payload_predicate("text", lambda t: len(t) > 20),
                       mine_proteins),
            ),
            provider="NCBI",
            legible=False,
        )
    )

    def mine_text(ctx: ModuleContext, ins: dict[str, TypedValue]):
        found = mine_pathways(ctx, ins["text"].payload)
        return {"annotations": _stats_value("PathwayConceptSet", found)}

    rows.append(
        ModuleRow(
            module_id="an.mine_text",
            name="MineText",
            inputs=(Parameter("text", PLAIN_TEXT, "FullTextDocument"),),
            # Output annotated at the covered AnnotationSet parent (shortfall).
            outputs=(Parameter("annotations", TABULAR, "AnnotationSet"),),
            branches=(
                Branch("mine-fulltext",
                       payload_predicate("text", lambda t: len(t) > 40),
                       mine_text),
            ),
            provider="Manchester-lab",
            legible=False,
        )
    )

    def text_to_go(ctx: ModuleContext, ins: dict[str, TypedValue]):
        text = ins["text"].payload.lower()
        found = {
            term.go_id: term.name
            for term in ctx.universe.go_terms
            if term.name.split()[0] in text
        }
        if not found:
            found = {ctx.universe.go_terms[0].go_id: ctx.universe.go_terms[0].name}
        return {"annotations": _stats_value("GOAnnotationSet", found)}

    rows.append(
        ModuleRow(
            module_id="an.text_to_go",
            name="TextToGOTerms",
            inputs=(Parameter("text", PLAIN_TEXT, "FullTextDocument"),),
            outputs=(Parameter("annotations", TABULAR, "GOAnnotationSet"),),
            branches=(
                Branch("text-to-go-terms",
                       payload_predicate("text", lambda t: len(t) > 40),
                       text_to_go),
            ),
            provider="GO",
            legible=False,
        )
    )

    # --- expression analysis ----------------------------------------------------------
    def expr_row(module_id, name, input_concept, output_concept, op, provider,
                 with_threshold=False):
        inputs = [Parameter("table", TABULAR, input_concept)]
        if with_threshold:
            inputs.append(Parameter("threshold", FLOAT, "ScoreThreshold"))

        def transform(ctx: ModuleContext, ins: dict[str, TypedValue]):
            try:
                if with_threshold:
                    result = op(ins["table"].payload, ins["threshold"].payload)
                else:
                    result = op(ins["table"].payload)
            except ValueError as exc:
                raise InvalidInputError(str(exc)) from exc
            return {"result": TypedValue(result, TABULAR, output_concept)}

        return ModuleRow(
            module_id=module_id,
            name=name,
            inputs=tuple(inputs),
            outputs=(Parameter("result", TABULAR, output_concept),),
            branches=(
                Branch("expression-analysis",
                       payload_predicate("table", lambda t: "\t" in t), transform),
            ),
            provider=provider,
            legible=False,
        )

    def cluster_expression(table: str) -> str:
        from repro.biodb.expression import parse_expression_table

        genes, _samples, values = parse_expression_table(table)
        lines = ["gene\tcluster"]
        for gene, row in zip(genes, values):
            mean = sum(row) / max(1, len(row))
            lines.append(f"{gene}\t{'high' if mean > 0 else 'low'}")
        return "\n".join(lines) + "\n"

    def expression_summary(table: str) -> str:
        from repro.biodb.expression import parse_expression_table

        genes, samples, values = parse_expression_table(table)
        total = sum(sum(row) for row in values)
        return (
            f"genes\t{len(genes)}\nsamples\t{len(samples)}\n"
            f"mean_intensity\t{total / max(1, len(genes) * len(samples)):.3f}\n"
        )

    rows.append(expr_row("an.normalize_microarray", "NormalizeMicroarray",
                         "MicroarrayData", "ExpressionMatrix", normalize_expression,
                         "Manchester-lab"))
    rows.append(expr_row("an.differential_expression", "DifferentialExpression",
                         "ExpressionMatrix", "ExpressionStatisticsReport",
                         differential_report, "Manchester-lab", with_threshold=True))
    rows.append(expr_row("an.cluster_expression", "ClusterExpression",
                         "ExpressionMatrix", "ExpressionStatisticsReport",
                         cluster_expression, "Manchester-lab"))
    rows.append(expr_row("an.expression_summary", "ExpressionSummary",
                         "MicroarrayData", "ExpressionStatisticsReport",
                         expression_summary, "Manchester-lab"))

    # ------------------------------------------------------------------
    # Completeness tail: 4 modules at 5/8 = 0.625
    # ------------------------------------------------------------------
    def profiled_row(module_id, name, provider, profile):
        """Five per-kind classes + three hidden classes (degenerate,
        oversized, gapped inputs) that one-instance-per-partition sampling
        never exhibits."""

        def hidden(label, predicate):
            def transform(ctx, ins):
                return {
                    "report": _stats_value(
                        "MotifSearchReport", {"special_case": label}
                    )
                }

            return Branch(label, payload_predicate("sequence", predicate), transform)

        def kind_branch(kind):
            def transform(ctx, ins):
                return {
                    "report": _stats_value(
                        "MotifSearchReport", profile(kind, ins["sequence"].payload)
                    )
                }

            return Branch(f"profile-{kind}", sequence_kind("sequence", (kind,)),
                          transform)

        branches = (
            hidden("degenerate-input", lambda s: isinstance(s, str) and len(s) < 4),
            hidden("oversized-input", lambda s: isinstance(s, str) and len(s) > 2000),
            hidden("gapped-input", lambda s: isinstance(s, str) and "-" in s),
        ) + tuple(kind_branch(kind) for kind in _ALL_KINDS)
        return ModuleRow(
            module_id=module_id,
            name=name,
            inputs=(Parameter("sequence", STRING, "BiologicalSequence"),),
            outputs=(Parameter("report", TABULAR, "MotifSearchReport"),),
            branches=branches,
            provider=provider,
            legible=False,
        )

    def motif_profile(kind, sequence):
        return {
            "kind": kind,
            "motif_alphabet": "nt" if "Nucleotide" in kind or kind.endswith("ASequence") or kind == "DNASequence" else "aa",
            "hits": str(sum(sequence.count(c) for c in "GC")),
        }

    def feature_profile(kind, sequence):
        return {"kind": kind, "features": str(len(sequence) // 10)}

    def complexity_profile(kind, sequence):
        distinct = len(set(sequence))
        return {"kind": kind, "complexity": f"{distinct / max(1, len(sequence)):.3f}"}

    def composition_profile(kind, sequence):
        return {
            "kind": kind,
            # Ties go to the smallest symbol: iterating a set of str
            # follows the per-process hash seed.
            "most_common": min(
                set(sequence), key=lambda symbol: (-sequence.count(symbol), symbol)
            ),
            "length": str(len(sequence)),
        }

    rows.append(profiled_row("an.scan_sequence_motifs", "ScanSequenceMotifs",
                             "EBI", motif_profile))
    rows.append(profiled_row("an.annotate_features", "AnnotateSequenceFeatures",
                             "EBI", feature_profile))
    rows.append(profiled_row("an.complexity_profile", "SequenceComplexityProfile",
                             "Manchester-lab", complexity_profile))
    rows.append(profiled_row("an.composition_profile", "CompositionProfile",
                             "Manchester-lab", composition_profile))

    # ------------------------------------------------------------------
    # Conciseness tail: over-partitioned analyses
    # ------------------------------------------------------------------
    def two_class_row(module_id, name, provider, nucleotide_op, protein_op):
        """BiologicalSequence input (5 partitions) collapsing into the two
        real classes nucleotide-vs-protein: conciseness 2/5 = 0.4."""

        def nucleotide_transform(ctx, ins):
            return {
                "value": TypedValue(
                    round(nucleotide_op(ins["sequence"].payload), 4), FLOAT,
                    "ScoreThreshold",
                )
            }

        def protein_transform(ctx, ins):
            return {
                "value": TypedValue(
                    round(protein_op(ins["sequence"].payload), 4), FLOAT,
                    "ScoreThreshold",
                )
            }

        return ModuleRow(
            module_id=module_id,
            name=name,
            inputs=(Parameter("sequence", STRING, "BiologicalSequence"),),
            outputs=(Parameter("value", FLOAT, "ScoreThreshold"),),
            branches=(
                Branch(f"{name}-nucleotide",
                       sequence_kind("sequence",
                                     _NUCLEOTIDE_KINDS + ("BiologicalSequence",)),
                       nucleotide_transform),
                Branch(f"{name}-protein",
                       sequence_kind("sequence", ("ProteinSequence",)),
                       protein_transform),
            ),
            provider=provider,
            legible=False,
        )

    rows.append(two_class_row("an.molecular_weight", "ComputeMolecularWeight",
                              "ExPASy", lambda s: len(s) * 330.0, molecular_weight))
    rows.append(two_class_row("an.compute_charge", "ComputeCharge", "ExPASy",
                              lambda s: -len(s) * 1.0,
                              lambda s: s.count("K") + s.count("R") - s.count("D") - s.count("E")))
    rows.append(two_class_row("an.compute_stability", "ComputeStability", "ExPASy",
                              lambda s: gc_content(s) * 100.0,
                              lambda s: 50.0 - s.count("P")))
    rows.append(two_class_row("an.compute_extinction", "ComputeExtinction", "ExPASy",
                              lambda s: len(s) * 0.02,
                              lambda s: s.count("W") * 5500.0 + s.count("Y") * 1490.0))

    def one_class_seq_row(module_id, name, provider, kinds, input_concept, op,
                          legible=False):
        """A single class over all ``kinds`` of ``input_concept`` — the
        ontology over-partitions the domain (conciseness 1/n)."""

        def transform(ctx, ins):
            return {"result": TypedValue(str(op(ins["sequence"].payload)), STRING,
                                         "ScoreThreshold")}

        return ModuleRow(
            module_id=module_id,
            name=name,
            inputs=(Parameter("sequence", STRING, input_concept),),
            outputs=(Parameter("result", STRING, "ScoreThreshold"),),
            branches=(
                Branch(f"{name}-uniform", sequence_kind("sequence", kinds), transform),
            ),
            provider=provider,
            legible=legible,
        )

    # 4 modules at 1/3 (NucleotideSequence: 3 partitions, 1 class)
    rows.append(one_class_seq_row("an.gc_content", "GCContent", "EBI",
                                  _NUCLEOTIDE_KINDS, "NucleotideSequence",
                                  lambda s: f"{gc_content(s):.4f}"))
    rows.append(one_class_seq_row("an.base_composition", "BaseComposition", "EBI",
                                  _NUCLEOTIDE_KINDS, "NucleotideSequence",
                                  lambda s: ",".join(f"{c}:{s.count(c)}" for c in "ACGTU")))
    rows.append(one_class_seq_row("an.count_ambiguous", "CountAmbiguousBases", "NCBI",
                                  _NUCLEOTIDE_KINDS, "NucleotideSequence",
                                  lambda s: sum(s.count(c) for c in "NRYSWKM")))
    rows.append(one_class_seq_row("an.nucleotide_length", "NucleotideLength", "NCBI",
                                  _NUCLEOTIDE_KINDS, "NucleotideSequence", len))

    # 8 modules at 1/5 (BiologicalSequence: 5 partitions, 1 class)
    rows.append(one_class_seq_row("an.sequence_length", "SequenceLength",
                                  "Manchester-lab", _ALL_KINDS, "BiologicalSequence",
                                  len, legible=True))
    rows.append(one_class_seq_row("an.reverse_sequence", "ReverseSequence",
                                  "Manchester-lab", _ALL_KINDS, "BiologicalSequence",
                                  lambda s: s[::-1], legible=True))
    rows.append(one_class_seq_row("an.sequence_checksum", "SequenceChecksum", "EBI",
                                  _ALL_KINDS, "BiologicalSequence",
                                  lambda s: hashlib.md5(s.encode()).hexdigest()[:8]))
    rows.append(one_class_seq_row("an.sequence_entropy", "SequenceEntropy", "EBI",
                                  _ALL_KINDS, "BiologicalSequence",
                                  lambda s: f"{-sum((s.count(c) / len(s)) * math.log2(s.count(c) / len(s)) for c in set(s)):.4f}"))
    rows.append(one_class_seq_row("an.count_residues", "CountResidues", "EBI",
                                  _ALL_KINDS, "BiologicalSequence",
                                  lambda s: len(set(s))))
    rows.append(one_class_seq_row("an.sequence_hash", "SequenceHash", "DDBJ",
                                  _ALL_KINDS, "BiologicalSequence",
                                  lambda s: hashlib.sha1(s.encode()).hexdigest()[:10]))
    rows.append(one_class_seq_row("an.window_density", "WindowDensity", "DDBJ",
                                  _ALL_KINDS, "BiologicalSequence",
                                  lambda s: len(s) // 10))
    rows.append(one_class_seq_row("an.compress_sequence", "CompressSequence", "DDBJ",
                                  _ALL_KINDS, "BiologicalSequence",
                                  lambda s: "".join(c for i, c in enumerate(s) if i == 0 or s[i - 1] != c)))

    # 4 modules at 1/6 (NucleotideSequence x OrganismIdentifier, 1 class)
    def organism_seq_row(module_id, name, provider, op, seq_concept, seq_kinds):
        def transform(ctx, ins):
            organism = _resolve_organism(ctx, ins["organism"])
            value = op(ins["sequence"].payload, organism)
            return {"score": TypedValue(round(value, 4), FLOAT, "ScoreThreshold")}

        def guard(ctx, ins):
            return sequence_kind("sequence", seq_kinds)(ctx, ins) and _organism_guard(
                "organism"
            )(ctx, ins)

        return ModuleRow(
            module_id=module_id,
            name=name,
            inputs=(
                Parameter("sequence", STRING, seq_concept),
                Parameter("organism", STRING, "OrganismIdentifier"),
            ),
            outputs=(Parameter("score", FLOAT, "ScoreThreshold"),),
            branches=(Branch(f"{name}-score", guard, transform),),
            provider=provider,
            legible=False,
        )

    rows.append(organism_seq_row("an.codon_usage_bias", "CodonUsageBias",
                                 "Manchester-lab",
                                 lambda s, o: gc_content(s) - 0.4 - o * 0.01,
                                 "NucleotideSequence", _NUCLEOTIDE_KINDS))
    rows.append(organism_seq_row("an.codon_adaptation", "CodonAdaptationIndex",
                                 "Manchester-lab",
                                 lambda s, o: 0.5 + (len(s) % 10) / 20 - o * 0.005,
                                 "NucleotideSequence", _NUCLEOTIDE_KINDS))
    rows.append(organism_seq_row("an.species_gc_deviation", "SpeciesGCDeviation",
                                 "EBI", lambda s, o: gc_content(s) - (0.35 + o * 0.02),
                                 "NucleotideSequence", _NUCLEOTIDE_KINDS))
    rows.append(organism_seq_row("an.organism_motif_density", "OrganismMotifDensity",
                                 "EBI", lambda s, o: s.count("GC") / max(1, len(s)) + o * 0.001,
                                 "NucleotideSequence", _NUCLEOTIDE_KINDS))

    # 1 module at 1/10 (BiologicalSequence x OrganismIdentifier, 1 class)
    rows.append(organism_seq_row("an.novelty_score", "SequenceNoveltyScore", "DDBJ",
                                 lambda s, o: len(set(s)) / max(1, len(s)) + o * 0.01,
                                 "BiologicalSequence", _ALL_KINDS))

    return assemble(rows, Category.DATA_ANALYSIS, n_soap=30, n_rest=16, n_local=13)
