"""Biological sequence generation, classification and transformation.

The five sequence concepts of the Figure 4 ontology fragment all have
concrete realizations here:

* ``DNASequence`` — over ``ACGT``;
* ``RNASequence`` — over ``ACGU``;
* ``ProteinSequence`` — over the 20 amino-acid letters, guaranteed to
  contain a letter outside the nucleotide alphabets;
* ``NucleotideSequence`` realization — a nucleotide sequence containing
  both ``T`` and ``U`` (or ambiguity codes), so it is neither DNA nor RNA
  specifically;
* ``BiologicalSequence`` realization — a sequence of ambiguity codes that
  cannot be classified as nucleotide or protein.

Analysis modules build on the transformations at the bottom of the file
(transcription, translation, reverse complement, composition statistics).
"""

from __future__ import annotations

import random

DNA_ALPHABET = "ACGT"
RNA_ALPHABET = "ACGU"
#: 20 standard amino acids.
PROTEIN_ALPHABET = "ACDEFGHIKLMNPQRSTVWY"
#: Nucleotide ambiguity codes shared by DNA and RNA.
AMBIGUITY_CODES = "NRYSWKM"

_CODON_TABLE = {
    # A deterministic reduced codon table: first two bases pick the residue.
    "AA": "K", "AC": "T", "AG": "R", "AT": "I",
    "CA": "Q", "CC": "P", "CG": "R", "CT": "L",
    "GA": "E", "GC": "A", "GG": "G", "GT": "V",
    "TA": "Y", "TC": "S", "TG": "C", "TT": "F",
}

_COMPLEMENT = {"A": "T", "T": "A", "C": "G", "G": "C", "N": "N"}

#: Average residue masses (Da), simplified, for peptide mass computation.
_RESIDUE_MASS = {
    "A": 71.08, "C": 103.14, "D": 115.09, "E": 129.12, "F": 147.18,
    "G": 57.05, "H": 137.14, "I": 113.16, "K": 128.17, "L": 113.16,
    "M": 131.19, "N": 114.10, "P": 97.12, "Q": 128.13, "R": 156.19,
    "S": 87.08, "T": 101.10, "V": 99.13, "W": 186.21, "Y": 163.18,
}
#: Mass (Da) an unknown residue contributes: the mean of the table.
_MEAN_RESIDUE_MASS = sum(_RESIDUE_MASS.values()) / len(_RESIDUE_MASS)


def _draw(rng: random.Random, alphabet: str, length: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))


def make_dna(rng: random.Random, length: int = 60) -> str:
    """A random DNA sequence."""
    return _draw(rng, DNA_ALPHABET, length)


def make_protein(rng: random.Random, length: int = 40) -> str:
    """A random protein sequence guaranteed to classify as protein."""
    body = _draw(rng, PROTEIN_ALPHABET, max(1, length - 1))
    # Ensure at least one unmistakably non-nucleotide residue.
    return "M" + body if set(body) <= set("ACGTUN") else "L" + body


def make_ambiguous_nucleotide(rng: random.Random, length: int = 60) -> str:
    """A realization of ``NucleotideSequence``: nucleotide but neither DNA
    nor RNA (contains both T and U)."""
    half = max(1, length // 2)
    return _draw(rng, DNA_ALPHABET, half) + "TU" + _draw(rng, RNA_ALPHABET, half)


def make_ambiguous_biological(rng: random.Random, length: int = 40) -> str:
    """A realization of ``BiologicalSequence``: all ambiguity codes, so the
    sequence cannot be pinned down as nucleotide or protein."""
    return _draw(rng, AMBIGUITY_CODES, length)


def classify_sequence(sequence: str) -> str:
    """Classify a raw sequence into its most specific sequence concept.

    Returns one of ``DNASequence``, ``RNASequence``, ``NucleotideSequence``,
    ``ProteinSequence`` or ``BiologicalSequence``.

    Raises:
        ValueError: For empty or non-alphabetic input.
    """
    if not sequence or not sequence.isalpha():
        raise ValueError(f"not a sequence: {sequence!r}")
    letters = set(sequence.upper())
    if letters <= set(AMBIGUITY_CODES):
        return "BiologicalSequence"
    if letters <= set(DNA_ALPHABET) | set(AMBIGUITY_CODES):
        return "DNASequence"
    if letters <= set(RNA_ALPHABET) | set(AMBIGUITY_CODES):
        return "RNASequence"
    if letters <= set(DNA_ALPHABET + RNA_ALPHABET) | set(AMBIGUITY_CODES):
        return "NucleotideSequence"
    if letters <= set(PROTEIN_ALPHABET) | set(AMBIGUITY_CODES) | {"U"}:
        return "ProteinSequence"
    raise ValueError(f"unclassifiable sequence alphabet: {sorted(letters)}")


def transcribe(dna: str) -> str:
    """DNA -> RNA transcription (T becomes U)."""
    return dna.upper().replace("T", "U")


def back_transcribe(rna: str) -> str:
    """RNA -> DNA (U becomes T)."""
    return rna.upper().replace("U", "T")


def reverse_complement(dna: str) -> str:
    """Reverse complement of a DNA sequence.

    Raises:
        KeyError: If the sequence contains letters outside ``ACGTN``.
    """
    return "".join(_COMPLEMENT[base] for base in reversed(dna.upper()))


def translate(nucleotide: str) -> str:
    """Translate a nucleotide sequence into protein (2-base reduced code).

    RNA input is back-transcribed first; trailing incomplete codons are
    dropped.  Ambiguity codes translate to ``X``-free ``G`` placeholder via
    the nearest table entry, keeping the function total over generated
    sequences.
    """
    dna = back_transcribe(nucleotide)
    residues = []
    for index in range(0, len(dna) - 1, 2):
        pair = dna[index : index + 2]
        residues.append(_CODON_TABLE.get(pair, "G"))
    return "".join(residues)


def gc_content(sequence: str) -> float:
    """Fraction of G/C letters; 0.0 for an empty sequence."""
    if not sequence:
        return 0.0
    upper = sequence.upper()
    return (upper.count("G") + upper.count("C")) / len(upper)


def molecular_weight(protein: str) -> float:
    """Approximate molecular weight (Da) of a protein sequence.

    Unknown residues contribute the mean residue mass.
    """
    water = 18.02
    return water + sum(
        _RESIDUE_MASS.get(residue, _MEAN_RESIDUE_MASS) for residue in protein.upper()
    )


def digest(protein: str, cut_residues: str = "KR") -> list[str]:
    """Trypsin-style digestion: cut after each residue in ``cut_residues``.

    Returns the list of non-empty peptide fragments.
    """
    peptides: list[str] = []
    current: list[str] = []
    for residue in protein.upper():
        current.append(residue)
        if residue in cut_residues:
            peptides.append("".join(current))
            current = []
    if current:
        peptides.append("".join(current))
    return [p for p in peptides if p]


def peptide_masses(protein: str) -> list[float]:
    """Masses of the tryptic peptides of ``protein``, one per fragment."""
    return [round(molecular_weight(p), 2) for p in digest(protein)]
