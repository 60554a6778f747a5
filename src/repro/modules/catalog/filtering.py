"""Filtering modules (27, Table 3).

Filtering modules extract from the input values those that meet given
criteria (§5).  They carry the paper's *completeness* tail (Table 1):
filters branch on value-level conditions the ontology cannot see, and
one-realization-per-partition sampling never exhibits the edge-case
classes:

* 13 clean modules (one class, or one class per exhibited partition);
  the paper's users identified only five of them from data examples —
  the length/prefix/duplicate filters flagged ``legible``.
* 8 modules at completeness 3/4 = 0.75 — three per-kind classes over
  ``List[NucleotideSequence]`` inputs plus a hidden empty-input class.
* 4 modules at completeness 3/5 = 0.6 — the same three classes plus two
  hidden classes (empty input, nothing-passes-the-filter).
* 2 modules at completeness 1/2 = 0.5 — one visible class plus a hidden
  empty-input class.
"""

from __future__ import annotations

from repro.biodb.expression import parse_expression_table, render_expression_table
from repro.biodb.sequences import gc_content, molecular_weight
from repro.modules.behavior import Branch
from repro.modules.catalog.common import (
    ModuleRow,
    assemble,
    empty_list,
    list_items_kind,
    payload_predicate,
    text_startswith,
    valid_accession,
)
from repro.modules.errors import InvalidInputError
from repro.modules.model import Category, ModuleContext, Parameter
from repro.values import (
    FLOAT,
    INTEGER,
    PLAIN_TEXT,
    STRING,
    TABULAR,
    TypedValue,
    list_of,
)

LIST_STRING = list_of(STRING)
LIST_FLOAT = list_of(FLOAT)

_NUCLEOTIDE_KINDS = ("DNASequence", "RNASequence", "NucleotideSequence")


def _list_out(items, concept: str) -> dict[str, TypedValue]:
    return {"filtered": TypedValue(tuple(items), LIST_STRING, concept)}


# ----------------------------------------------------------------------
# Clean filters
# ----------------------------------------------------------------------
def _simple_filter_row(
    module_id, name, item_concept, predicate_factory, provider, legible=False,
    extra_input=None,
):
    """A clean filter: one behavior class covering every valid input.

    ``predicate_factory(ctx, inputs)`` returns the item predicate; the
    module keeps the items satisfying it (possibly none — still normal
    termination, same class of behavior).
    """
    inputs = [Parameter("items", LIST_STRING, item_concept)]
    if extra_input is not None:
        inputs.append(extra_input)

    def transform(ctx: ModuleContext, ins: dict[str, TypedValue]):
        keep = predicate_factory(ctx, ins)
        return _list_out(
            (item for item in ins["items"].payload if keep(item)), item_concept
        )

    return ModuleRow(
        module_id=module_id,
        name=name,
        inputs=tuple(inputs),
        outputs=(Parameter("filtered", LIST_STRING, item_concept),),
        branches=(
            Branch(
                label=f"{name}-select",
                guard=payload_predicate("items", lambda items: isinstance(items, tuple)),
                transform=transform,
            ),
        ),
        provider=provider,
        legible=legible,
    )


# ----------------------------------------------------------------------
# Under-partitioned filters (the completeness tail)
# ----------------------------------------------------------------------
def _per_kind_filter_row(
    module_id, name, provider, transform_for_kind, hidden_none_passes=False
):
    """A filter over ``List[NucleotideSequence]`` with one visible class
    per sequence kind and one or two hidden classes.

    Hidden class 1 (always): empty input list -> a distinct
    ``empty-input`` behavior.  Hidden class 2 (``hidden_none_passes``):
    when no item satisfies the filter, the module reports failure rather
    than returning an empty list.  Stock pool lists are non-empty and
    always contain a passing item, so neither class is ever exhibited.
    """

    def empty_transform(ctx, ins):
        return {"filtered": TypedValue("EMPTY-INPUT", PLAIN_TEXT, "KeywordSet")}

    branches = [Branch("empty-input", empty_list("items"), empty_transform)]

    if hidden_none_passes:
        keep = transform_for_kind("predicate")

        def none_pass_guard(ctx, ins):
            items = ins.get("items")
            if items is None or not isinstance(items.payload, tuple) or not items.payload:
                return False
            try:
                return not any(keep(ctx, ins, item) for item in items.payload)
            except (ValueError, TypeError):
                return False

        def none_pass_transform(ctx, ins):
            return {"filtered": TypedValue("NO-MATCH", PLAIN_TEXT, "KeywordSet")}

        branches.append(Branch("nothing-passes", none_pass_guard, none_pass_transform))

    for kind in _NUCLEOTIDE_KINDS:
        def kind_transform(ctx, ins, kind=kind):
            keep = transform_for_kind(kind)
            return _list_out(
                (item for item in ins["items"].payload if keep(ctx, ins, item)), kind
            )

        branches.append(
            Branch(f"filter-{kind}", list_items_kind("items", (kind,)), kind_transform)
        )

    return ModuleRow(
        module_id=module_id,
        name=name,
        inputs=(
            Parameter("items", LIST_STRING, "NucleotideSequence"),
            Parameter("threshold", INTEGER, "LengthThreshold"),
        ),
        outputs=(Parameter("filtered", LIST_STRING, "NucleotideSequence"),),
        branches=tuple(branches),
        provider=provider,
        legible=False,
    )


def build_filtering_modules():
    """Assemble the 27 filtering modules (SOAP 16 / REST 8 / local 3)."""
    rows: list[ModuleRow] = []

    # --- the 13 clean filters (5 legible) --------------------------------
    rows.append(
        _simple_filter_row(
            "fl.filter_proteins_by_length", "FilterProteinsByLength",
            "ProteinSequence",
            lambda ctx, ins: lambda item: len(item) >= ins["threshold"].payload,
            "Manchester-lab", legible=True,
            extra_input=Parameter("threshold", INTEGER, "LengthThreshold"),
        )
    )
    rows.append(
        _simple_filter_row(
            "fl.filter_dna_by_length", "FilterDNAByLength", "DNASequence",
            lambda ctx, ins: lambda item: len(item) >= ins["threshold"].payload,
            "EBI", legible=True,
            extra_input=Parameter("threshold", INTEGER, "LengthThreshold"),
        )
    )
    rows.append(
        _simple_filter_row(
            "fl.filter_proteins_met", "FilterProteinsStartingWithMet",
            "ProteinSequence",
            lambda ctx, ins: lambda item: item.startswith("M"),
            "Manchester-lab", legible=True,
        )
    )

    def unique_filter(ctx, ins):
        seen = set()

        def keep(item):
            if item in seen:
                return False
            seen.add(item)
            return True

        return keep

    rows.append(
        _simple_filter_row(
            "fl.filter_duplicates", "FilterDuplicateSequences", "ProteinSequence",
            unique_filter, "EBI", legible=True,
        )
    )

    def filter_masses(ctx: ModuleContext, ins: dict[str, TypedValue]):
        cutoff = ins["cutoff"].payload
        kept = tuple(m for m in ins["masses"].payload if m >= cutoff)
        return {"filtered": TypedValue(kept, LIST_FLOAT, "PeptideMassList")}

    rows.append(
        ModuleRow(
            module_id="fl.filter_short_peptides",
            name="FilterShortPeptides",
            inputs=(
                Parameter("masses", LIST_FLOAT, "PeptideMassList"),
                Parameter("cutoff", FLOAT, "ScoreThreshold"),
            ),
            outputs=(Parameter("filtered", LIST_FLOAT, "PeptideMassList"),),
            branches=(
                Branch(
                    "filter-peptide-masses",
                    payload_predicate("masses", lambda m: isinstance(m, tuple)),
                    filter_masses,
                ),
            ),
            provider="ExPASy",
            legible=True,
        )
    )

    # report filters (illegible)
    def report_filter_row(module_id, name, threshold_concept, keep_line, provider):
        def transform(ctx: ModuleContext, ins: dict[str, TypedValue]):
            lines = ins["report"].payload.splitlines()
            kept = [
                line
                for line in lines
                if line.startswith("#") or keep_line(line, ins["threshold"].payload)
            ]
            if len(kept) == sum(1 for l in lines if l.startswith("#")):
                kept.append("# no hits above threshold")
            return {
                "filtered": TypedValue(
                    "\n".join(kept) + "\n", TABULAR, "HomologySearchReport"
                )
            }

        return ModuleRow(
            module_id=module_id,
            name=name,
            inputs=(
                Parameter("report", TABULAR, "HomologySearchReport"),
                Parameter("threshold", FLOAT, threshold_concept),
            ),
            outputs=(Parameter("filtered", TABULAR, "HomologySearchReport"),),
            branches=(
                Branch(
                    f"{name}-filter", text_startswith("report", "#"), transform
                ),
            ),
            provider=provider,
            legible=False,
        )

    def score_keep(line: str, threshold: float) -> bool:
        cells = line.split("\t")
        return len(cells) == 3 and float(cells[2]) >= threshold

    def evalue_keep(line: str, cutoff: float) -> bool:
        cells = line.split("\t")
        if len(cells) != 3:
            return False
        evalue = 10.0 ** (-float(cells[2]) / 10.0)
        return evalue <= cutoff

    rows.append(report_filter_row("fl.filter_hits_by_score", "FilterHitsByScore",
                                  "ScoreThreshold", score_keep, "EBI"))
    rows.append(report_filter_row("fl.filter_hits_by_evalue", "FilterHitsByEValue",
                                  "EValueCutoff", evalue_keep, "EBI"))

    def filter_gaps(ctx: ModuleContext, ins: dict[str, TypedValue]):
        lines = ins["alignment"].payload.splitlines()
        kept = [lines[0], ""] + [
            line for line in lines[2:] if line.strip() and "-" not in line.split()[-1]
        ]
        return {
            "filtered": TypedValue(
                "\n".join(kept) + "\n", PLAIN_TEXT, "MultipleAlignmentReport"
            )
        }

    rows.append(
        ModuleRow(
            module_id="fl.filter_alignment_gaps",
            name="FilterAlignmentGaps",
            inputs=(Parameter("alignment", PLAIN_TEXT, "MultipleAlignmentReport"),),
            outputs=(Parameter("filtered", PLAIN_TEXT, "MultipleAlignmentReport"),),
            branches=(
                Branch("drop-gapped-rows", text_startswith("alignment", "CLUSTAL"),
                       filter_gaps),
            ),
            provider="EBI",
            legible=False,
        )
    )

    def filter_expression(ctx: ModuleContext, ins: dict[str, TypedValue]):
        try:
            genes, samples, values = parse_expression_table(ins["table"].payload)
        except ValueError as exc:
            raise InvalidInputError(str(exc)) from exc
        threshold = ins["threshold"].payload
        kept = [
            (gene, row)
            for gene, row in zip(genes, values)
            if max(row) - min(row) >= threshold
        ]
        table = render_expression_table(
            [g for g, _ in kept], samples, [r for _, r in kept]
        )
        return {"filtered": TypedValue(table, TABULAR, "ExpressionMatrix")}

    rows.append(
        ModuleRow(
            module_id="fl.filter_expression_variance",
            name="FilterExpressionByVariance",
            inputs=(
                Parameter("table", TABULAR, "ExpressionMatrix"),
                Parameter("threshold", FLOAT, "ScoreThreshold"),
            ),
            outputs=(Parameter("filtered", TABULAR, "ExpressionMatrix"),),
            branches=(
                Branch("filter-by-variance",
                       payload_predicate("table", lambda t: "\t" in t),
                       filter_expression),
            ),
            provider="Manchester-lab",
            legible=False,
        )
    )

    def filter_annotations(ctx: ModuleContext, ins: dict[str, TypedValue]):
        kept = [
            line
            for line in ins["annotations"].payload.splitlines()
            if line.strip() and "GO:" in line
        ]
        return {
            "filtered": TypedValue(
                "\n".join(kept) + "\n", TABULAR, "GOAnnotationSet"
            )
        }

    rows.append(
        ModuleRow(
            module_id="fl.filter_annotations",
            name="FilterAnnotationsByNamespace",
            inputs=(Parameter("annotations", TABULAR, "GOAnnotationSet"),),
            outputs=(Parameter("filtered", TABULAR, "GOAnnotationSet"),),
            branches=(
                Branch("keep-go-lines",
                       payload_predicate("annotations", lambda t: isinstance(t, str)),
                       filter_annotations),
            ),
            provider="GO",
            legible=False,
        )
    )

    def filter_sentences(ctx: ModuleContext, ins: dict[str, TypedValue]):
        sentences = [s.strip() for s in ins["text"].payload.split(".") if s.strip()]
        kept = [s for s in sentences if any(ch.isupper() for ch in s[1:])]
        if not kept:
            raise InvalidInputError("no informative sentences")
        return {"filtered": TypedValue(". ".join(kept) + ".", PLAIN_TEXT, "Abstract")}

    rows.append(
        ModuleRow(
            module_id="fl.filter_abstract_sentences",
            name="FilterAbstractSentences",
            inputs=(Parameter("text", PLAIN_TEXT, "Abstract"),),
            outputs=(Parameter("filtered", PLAIN_TEXT, "Abstract"),),
            branches=(
                Branch("keep-entity-sentences",
                       payload_predicate("text", lambda t: len(t) > 20),
                       filter_sentences),
            ),
            provider="Manchester-lab",
            legible=False,
        )
    )

    def filter_genes_by_organism(ctx: ModuleContext, ins: dict[str, TypedValue]):
        organism = ctx.universe.resolve("NCBITaxonId", ins["organism"].payload)
        kept = []
        for accession in ins["items"].payload:
            if ctx.universe.has("KEGGGeneId", accession):
                gene = ctx.universe.resolve("KEGGGeneId", accession)
                if gene.organism_ordinal == organism:
                    kept.append(accession)
        return _list_out(kept, "KEGGGeneId")

    rows.append(
        ModuleRow(
            module_id="fl.filter_genes_by_organism",
            name="FilterGenesByOrganism",
            inputs=(
                Parameter("items", LIST_STRING, "KEGGGeneId"),
                Parameter("organism", STRING, "NCBITaxonId"),
            ),
            # Output annotated at the covered GeneIdentifier parent while
            # only KEGG gene ids are emitted (output shortfall, §4.3).
            outputs=(Parameter("filtered", LIST_STRING, "GeneIdentifier"),),
            branches=(
                Branch("filter-by-organism", valid_accession("organism", "NCBITaxonId"),
                       filter_genes_by_organism),
            ),
            provider="KEGG-mirror",
            legible=False,
        )
    )

    def filter_with_structure(ctx: ModuleContext, ins: dict[str, TypedValue]):
        kept = [
            accession
            for accession in ins["items"].payload
            if ctx.universe.has("UniProtAccession", accession)
            and ctx.universe.resolve("UniProtAccession", accession).structure_ordinal
            is not None
        ]
        return _list_out(kept, "UniProtAccession")

    rows.append(
        ModuleRow(
            module_id="fl.filter_with_structure",
            name="FilterRecordsWithStructure",
            inputs=(Parameter("items", LIST_STRING, "UniProtAccession"),),
            outputs=(Parameter("filtered", LIST_STRING, "UniProtAccession"),),
            branches=(
                Branch("keep-structured",
                       payload_predicate("items", lambda m: isinstance(m, tuple)),
                       filter_with_structure),
            ),
            provider="PDB",
            legible=False,
        )
    )

    # --- 8 modules at completeness 3/4 -----------------------------------
    def by_gc(kind):
        if kind == "predicate":
            return lambda ctx, ins, item: gc_content(item) >= 0.1
        return lambda ctx, ins, item: gc_content(item) >= 0.1

    def by_length(kind):
        return lambda ctx, ins, item: len(item) >= ins["threshold"].payload

    def by_ambiguity(kind):
        return lambda ctx, ins, item: sum(item.count(c) for c in "NRYSWKM") <= len(item) // 2

    def by_motif(kind):
        motif = {"DNASequence": "GC", "RNASequence": "GC"}.get(kind, "G")
        return lambda ctx, ins, item: motif in item

    def longest_only(kind):
        def keep(ctx, ins, item):
            return len(item) == max(len(x) for x in ins["items"].payload)

        return keep

    def highest_gc(kind):
        def keep(ctx, ins, item):
            best = max(gc_content(x) for x in ins["items"].payload)
            return gc_content(item) >= best - 1e-9

        return keep

    def not_short(kind):
        return lambda ctx, ins, item: len(item) > 8

    def dedupe(kind):
        def keep(ctx, ins, item):
            return ins["items"].payload.index(item) == [
                x for x in ins["items"].payload
            ].index(item)

        return keep

    rows.append(_per_kind_filter_row("fl.filter_nuc_by_gc", "FilterNucByGC",
                                     "EBI", by_gc))
    rows.append(_per_kind_filter_row("fl.filter_nuc_by_length", "FilterNucByLength",
                                     "EBI", by_length))
    rows.append(_per_kind_filter_row("fl.filter_nuc_by_ambiguity",
                                     "FilterNucByAmbiguity", "NCBI", by_ambiguity))
    rows.append(_per_kind_filter_row("fl.filter_nuc_by_motif", "FilterNucByMotif",
                                     "NCBI", by_motif))
    rows.append(_per_kind_filter_row("fl.select_longest_nuc", "SelectLongestNuc",
                                     "DDBJ", longest_only))
    rows.append(_per_kind_filter_row("fl.select_highest_gc", "SelectHighestGC",
                                     "DDBJ", highest_gc))
    rows.append(_per_kind_filter_row("fl.remove_short_nuc", "RemoveShortNuc",
                                     "Manchester-lab", not_short))
    rows.append(_per_kind_filter_row("fl.dedupe_nuc", "DeduplicateNuc",
                                     "Manchester-lab", dedupe))

    # --- 4 modules at completeness 3/5 -----------------------------------
    def window_gc(kind):
        if kind == "predicate":
            return lambda ctx, ins, item: gc_content(item[:20]) >= 0.05
        return lambda ctx, ins, item: gc_content(item[:20]) >= 0.05

    def by_composition(kind):
        if kind == "predicate":
            return lambda ctx, ins, item: len(set(item)) >= 2
        return lambda ctx, ins, item: len(set(item)) >= 2

    def by_quality(kind):
        if kind == "predicate":
            return lambda ctx, ins, item: item.count("N") < len(item)
        return lambda ctx, ins, item: item.count("N") < len(item)

    def by_entropy(kind):
        if kind == "predicate":
            return lambda ctx, ins, item: len(set(item)) > 1
        return lambda ctx, ins, item: len(set(item)) > 1

    rows.append(_per_kind_filter_row("fl.filter_nuc_window_gc", "FilterNucByWindowGC",
                                     "EBI", window_gc, hidden_none_passes=True))
    rows.append(_per_kind_filter_row("fl.select_nuc_composition",
                                     "SelectNucByComposition", "EBI", by_composition,
                                     hidden_none_passes=True))
    rows.append(_per_kind_filter_row("fl.trim_nuc_quality", "TrimNucByQuality",
                                     "NCBI", by_quality, hidden_none_passes=True))
    rows.append(_per_kind_filter_row("fl.filter_nuc_entropy", "FilterNucByEntropy",
                                     "NCBI", by_entropy, hidden_none_passes=True))

    # --- 2 modules at completeness 1/2 -----------------------------------
    def half_hidden_row(module_id, name, provider, keep_factory, item_concept,
                        threshold: Parameter):
        def empty_transform(ctx, ins):
            return {"filtered": TypedValue("EMPTY-INPUT", PLAIN_TEXT, "KeywordSet")}

        def transform(ctx: ModuleContext, ins: dict[str, TypedValue]):
            keep = keep_factory(ctx, ins)
            return _list_out(
                (item for item in ins["items"].payload if keep(item)), item_concept
            )

        return ModuleRow(
            module_id=module_id,
            name=name,
            inputs=(Parameter("items", LIST_STRING, item_concept), threshold),
            outputs=(Parameter("filtered", LIST_STRING, item_concept),),
            branches=(
                Branch("empty-input", empty_list("items"), empty_transform),
                Branch(
                    f"{name}-select",
                    payload_predicate("items", lambda m: isinstance(m, tuple)),
                    transform,
                ),
            ),
            provider=provider,
            legible=False,
        )

    rows.append(
        half_hidden_row(
            "fl.filter_proteins_by_weight", "FilterProteinsByWeight",
            "ExPASy",
            lambda ctx, ins: lambda item: molecular_weight(item)
            >= ins["cutoff"].payload,
            "ProteinSequence",
            Parameter("cutoff", FLOAT, "ScoreThreshold"),
        )
    )
    rows.append(
        half_hidden_row(
            "fl.select_unique_proteins", "SelectConservedProteins", "DDBJ",
            lambda ctx, ins: lambda item: len(item) >= ins["cutoff"].payload,
            "ProteinSequence",
            Parameter("cutoff", FLOAT, "ScoreThreshold"),
        )
    )

    return assemble(rows, Category.FILTERING, n_soap=16, n_rest=8, n_local=3)
