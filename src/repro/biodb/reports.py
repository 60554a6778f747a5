"""Renderers for analysis reports: alignments, searches, trees, statistics.

Analysis modules (Table 3's most opaque category) produce these report
texts; the realization factory also uses them to seed the instance pool
with report-typed values for modules that consume reports (e.g. a
phylogenetic-tree builder consuming a multiple alignment).
"""

from __future__ import annotations

from operator import eq

from repro.biodb.sequences import gc_content, molecular_weight


def _pad(sequence_a: str, sequence_b: str) -> tuple[str, str]:
    width = max(len(sequence_a), len(sequence_b))
    return sequence_a.ljust(width, "-"), sequence_b.ljust(width, "-")


def alignment_score(upper_a: str, upper_b: str) -> int:
    """:func:`score_alignment` of two sequences already upper-cased.

    Padding the shorter sequence with ``-`` and scoring +2 per equal
    non-gap position and -1 per other position is ``3·M − width``, where
    ``M`` counts the equal non-gap positions below the shorter length:
    the equal positions, counted at C speed by ``operator.eq``, less
    those where both hold ``-``.
    """
    matches = sum(map(eq, upper_a, upper_b))
    if "-" in upper_a and "-" in upper_b:
        matches -= sum(x == y == "-" for x, y in zip(upper_a, upper_b))
    return 3 * matches - max(len(upper_a), len(upper_b))


def score_alignment(sequence_a: str, sequence_b: str) -> int:
    """Toy global alignment score: +2 per positional match, -1 otherwise."""
    return alignment_score(sequence_a.upper(), sequence_b.upper())


def render_pairwise_alignment(
    name_a: str, sequence_a: str, name_b: str, sequence_b: str, program: str
) -> str:
    """Render a pairwise alignment report (EMBOSS-like)."""
    padded_a, padded_b = _pad(sequence_a.upper(), sequence_b.upper())
    markers = "".join(
        "|" if x == y and x != "-" else " " for x, y in zip(padded_a, padded_b)
    )
    identity = sum(marker == "|" for marker in markers)
    return (
        f"# Program: {program}\n"
        f"# Aligned: {name_a} vs {name_b}\n"
        f"# Score: {3 * identity - len(padded_a)}\n"
        f"# Identity: {identity}/{len(padded_a)}\n"
        f"{name_a[:10]:<12}{padded_a}\n"
        f"{'':<12}{markers}\n"
        f"{name_b[:10]:<12}{padded_b}\n"
    )


def render_multiple_alignment(entries: "list[tuple[str, str]]") -> str:
    """Render a CLUSTAL-like multiple alignment of (name, sequence) pairs."""
    width = max((len(sequence) for _name, sequence in entries), default=0)
    lines = ["CLUSTAL-like multiple sequence alignment", ""]
    for name, sequence in entries:
        lines.append(f"{name[:12]:<16}{sequence.upper().ljust(width, '-')}")
    return "\n".join(lines) + "\n"


def render_homology_report(
    query_name: str, hits: "list[tuple[str, str, int]]", database: str, program: str
) -> str:
    """Render a BLAST-like tabular homology report.

    Args:
        query_name: Name of the query sequence.
        hits: ``(accession, description, score)`` triples, best first.
        database: Database searched.
        program: Search program used.
    """
    lines = [
        f"# {program} search of {query_name} against {database}",
        "# accession\tdescription\tscore",
    ]
    lines.extend(f"{acc}\t{desc}\t{score}" for acc, desc, score in hits)
    return "\n".join(lines) + "\n"


def render_motif_report(sequence_name: str, motifs: "list[tuple[str, int]]") -> str:
    """Render a motif-scan report of ``(motif, position)`` hits."""
    lines = [f"# motif scan: {sequence_name}", "# motif\tposition"]
    lines.extend(f"{motif}\t{position}" for motif, position in motifs)
    return "\n".join(lines) + "\n"


def render_newick(leaves: "list[str]") -> str:
    """Render a caterpillar Newick tree over the leaf names, in order."""
    if not leaves:
        return "();"
    if len(leaves) == 1:
        return f"({leaves[0]});"
    tree = leaves[0]
    for leaf in leaves[1:]:
        tree = f"({tree},{leaf})"
    return tree + ";"


def render_sequence_statistics(name: str, sequence: str) -> str:
    """Render a composition statistics report for one sequence."""
    return (
        f"sequence\t{name}\n"
        f"length\t{len(sequence)}\n"
        f"gc_content\t{gc_content(sequence):.3f}\n"
        f"molecular_weight\t{molecular_weight(sequence):.2f}\n"
    )


def render_identification_report(
    accession: str, description: str, matched: int, tolerance: float
) -> str:
    """Render a protein-identification (peptide mass fingerprint) report."""
    return (
        f"identified\t{accession}\n"
        f"description\t{description}\n"
        f"matched_peptides\t{matched}\n"
        f"tolerance\t{tolerance}\n"
    )
