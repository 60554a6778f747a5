"""Unit tests for the accession schemes."""

import pytest

from repro.biodb.accessions import (
    SCHEMES,
    classify_accession,
    scheme_for,
    species_code,
    species_name,
)


class TestSchemes:
    def test_every_scheme_mints_valid_accessions(self):
        for concept, scheme in SCHEMES.items():
            for ordinal in (0, 1, 17, 100):
                accession = scheme.mint(ordinal)
                assert scheme.is_valid(accession), (concept, accession)

    def test_mint_is_injective_over_small_range(self):
        for concept, scheme in SCHEMES.items():
            if concept == "ScientificOrganismName":
                continue  # only 8 organisms exist
            minted = {scheme.mint(i) for i in range(50)}
            assert len(minted) == 50, concept

    def test_schemes_are_pairwise_disjoint_on_minted_values(self):
        """Critical for the link-family dispatch: a minted accession must
        be valid under exactly one scheme."""
        for concept, scheme in SCHEMES.items():
            for ordinal in range(25):
                accession = scheme.mint(ordinal)
                matches = [
                    other
                    for other, other_scheme in SCHEMES.items()
                    if other_scheme.is_valid(accession)
                ]
                assert matches == [concept], (accession, matches)

    def test_scheme_for_unknown_concept(self):
        with pytest.raises(KeyError):
            scheme_for("NotAConcept")

    def test_invalid_accessions_rejected(self):
        assert not scheme_for("UniProtAccession").is_valid("banana")
        assert not scheme_for("GOTermIdentifier").is_valid("GO:12")
        assert not scheme_for("KEGGGeneId").is_valid("hsa1234")

    def test_validity_requires_full_match(self):
        scheme = scheme_for("EntrezGeneId")
        assert scheme.is_valid("5001")
        assert not scheme.is_valid("5001 ")
        assert not scheme.is_valid("x5001")


class TestClassification:
    def test_classify_minted_accessions(self):
        for concept, scheme in SCHEMES.items():
            assert classify_accession(scheme.mint(3)) == concept

    def test_classify_unknown_returns_none(self):
        assert classify_accession("???") is None


class TestSpecies:
    def test_species_tables_align(self):
        assert species_code(0) == "hsa"
        assert species_name(0) == "Homo sapiens"

    def test_species_wrap_around(self):
        assert species_code(8) == species_code(0)
        assert species_name(9) == species_name(1)
