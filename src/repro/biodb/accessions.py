"""Accession schemes of the synthetic biological databases.

Each identifier concept of the myGrid-lite ontology has a concrete
accession *scheme*: a deterministic generator of well-formed identifiers
and a validator.  Retrieval and mapping modules use validators to reject
malformed or foreign identifiers (the "invalid combinations" of §3.2 that
must terminate abnormally), and the universe generator uses the generators
to mint cross-referenced identifiers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class AccessionScheme:
    """A naming scheme for one identifier concept.

    Attributes:
        concept: The ontology concept the scheme realizes.
        pattern: Regex all well-formed accessions match.
        mint: Maps a non-negative ordinal to a well-formed accession;
            injective, so ordinal ``i`` always yields the same accession.
    """

    concept: str
    pattern: str
    mint: Callable[[int], str]
    _regex: "re.Pattern[str]" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_regex", re.compile(self.pattern))

    def is_valid(self, accession: str) -> bool:
        """True when ``accession`` is well-formed under this scheme
        (``re.fullmatch(pattern, accession)``, compiled once)."""
        return self._regex.fullmatch(accession) is not None


def _digits(value: int, width: int) -> str:
    return str(value).zfill(width)


_SPECIES = (
    ("hsa", "Homo sapiens"),
    ("mmu", "Mus musculus"),
    ("dme", "Drosophila melanogaster"),
    ("sce", "Saccharomyces cerevisiae"),
    ("eco", "Escherichia coli"),
    ("ath", "Arabidopsis thaliana"),
    ("rno", "Rattus norvegicus"),
    ("cel", "Caenorhabditis elegans"),
)


def species_code(ordinal: int) -> str:
    """KEGG-style three-letter species code for an organism ordinal."""
    return _SPECIES[ordinal % len(_SPECIES)][0]


def species_name(ordinal: int) -> str:
    """Latin binomial for an organism ordinal."""
    return _SPECIES[ordinal % len(_SPECIES)][1]


SCHEMES: dict[str, AccessionScheme] = {}


def _register(concept: str, pattern: str, mint: Callable[[int], str]) -> None:
    SCHEMES[concept] = AccessionScheme(concept=concept, pattern=pattern, mint=mint)


_register("UniProtAccession", r"[OPQ]\d[A-Z0-9]{3}\d", lambda i: f"P{_digits(10000 + i, 5)}")
_register("PIRAccession", r"[A-C]\d{5}", lambda i: f"A{_digits(20000 + i, 5)}")
_register("EMBLAccession", r"[A-Z]{2}\d{6}", lambda i: f"AB{_digits(100000 + i, 6)}")
_register("GenBankAccession", r"[U-Z]\d{5}", lambda i: f"U{_digits(30000 + i, 5)}")
_register(
    "RefSeqNucleotideAccession", r"NM_\d{6}", lambda i: f"NM_{_digits(100000 + i, 6)}"
)
_register(
    "KEGGGeneId",
    r"[a-z]{3}:\d{4,6}",
    lambda i: f"{species_code(i)}:{_digits(1000 + i, 4)}",
)
_register("EntrezGeneId", r"\d{4}", lambda i: _digits(5000 + i, 4))
_register(
    "EnsemblGeneId", r"ENSG\d{11}", lambda i: f"ENSG{_digits(i + 1, 11)}"
)
_register(
    "KEGGPathwayId",
    r"path:[a-z]{3}\d{5}",
    lambda i: f"path:{species_code(i)}{_digits(10 * (i + 1), 5)}",
)
_register(
    "ReactomePathwayId", r"R-HSA-\d{6}", lambda i: f"R-HSA-{_digits(100000 + i, 6)}"
)
_register(
    "ECNumber",
    r"\d\.\d{1,2}\.\d{1,2}\.\d{1,3}",
    lambda i: f"{1 + i % 6}.{1 + i % 20}.{1 + i % 25}.{1 + i}",
)
_register("KEGGCompoundId", r"cpd:C\d{5}", lambda i: f"cpd:C{_digits(i + 1, 5)}")
_register("ChEBIIdentifier", r"CHEBI:\d{4,6}", lambda i: f"CHEBI:{_digits(10000 + i, 5)}")
_register(
    "PDBIdentifier",
    r"\d[A-Z]{3}",
    lambda i: f"{1 + i % 9}{chr(65 + i % 26)}{chr(65 + (i // 26) % 26)}{chr(65 + (i // 676) % 26)}",
)
_register("GOTermIdentifier", r"GO:\d{7}", lambda i: f"GO:{_digits(8000 + i, 7)}")
_register("InterProIdentifier", r"IPR\d{6}", lambda i: f"IPR{_digits(i + 1, 6)}")
_register("PubMedIdentifier", r"\d{7,8}", lambda i: _digits(2000000 + i, 7))
_register(
    "DOIIdentifier",
    r"10\.\d{4}/synbio\.\d+",
    lambda i: f"10.1234/synbio.{i + 1}",
)
_register("KEGGGlycanId", r"gl:G\d{5}", lambda i: f"gl:G{_digits(i + 1, 5)}")
_register("LigandId", r"LIG\d{5}", lambda i: f"LIG{_digits(i + 1, 5)}")
_register("NCBITaxonId", r"\d{5}", lambda i: _digits(90000 + i, 5))
_register(
    "ScientificOrganismName",
    r"[A-Z][a-z]+ [a-z]+",
    lambda i: species_name(i),
)


def scheme_for(concept: str) -> AccessionScheme:
    """Return the scheme realizing ``concept``.

    Raises:
        KeyError: If no scheme is registered for the concept.
    """
    return SCHEMES[concept]


def classify_accession(accession: str) -> str | None:
    """Return the identifier concept whose scheme matches ``accession``.

    Schemes are checked in registration order; the first match wins.
    Returns ``None`` when nothing matches.
    """
    for concept, scheme in SCHEMES.items():
        if scheme.is_valid(accession):
            return concept
    return None
