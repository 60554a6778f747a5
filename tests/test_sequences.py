"""Unit and property tests for biological sequence operations."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.biodb.sequences import (
    back_transcribe,
    classify_sequence,
    digest,
    gc_content,
    make_ambiguous_biological,
    make_ambiguous_nucleotide,
    make_dna,
    make_protein,
    molecular_weight,
    peptide_masses,
    reverse_complement,
    transcribe,
    translate,
)

dna_strategy = st.text(alphabet="ACGT", min_size=1, max_size=200)
rna_strategy = st.text(alphabet="ACGU", min_size=1, max_size=200)
# Letters that are amino acids but neither nucleotides nor ambiguity codes,
# so any non-empty string over them classifies as protein.
protein_strategy = st.text(alphabet="DEFHILPQ", min_size=1, max_size=100)


class TestGenerators:
    @pytest.mark.parametrize("seed", [0, 1, 42, 2014])
    def test_generators_classify_to_their_kind(self, seed):
        rng = random.Random(seed)
        assert classify_sequence(make_dna(rng)) == "DNASequence"
        assert classify_sequence(transcribe(make_dna(rng))) == "RNASequence"
        assert classify_sequence(make_protein(rng)) == "ProteinSequence"
        assert classify_sequence(make_ambiguous_nucleotide(rng)) == "NucleotideSequence"
        assert classify_sequence(make_ambiguous_biological(rng)) == "BiologicalSequence"

    def test_generators_are_seed_deterministic(self):
        assert make_dna(random.Random(7)) == make_dna(random.Random(7))
        assert make_protein(random.Random(7)) == make_protein(random.Random(7))

    def test_generator_length_parameter(self):
        assert len(make_dna(random.Random(1), length=33)) == 33


class TestClassification:
    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            classify_sequence("")

    def test_non_alphabetic_rejected(self):
        with pytest.raises(ValueError):
            classify_sequence("ACGT-ACGT")

    def test_lowercase_is_normalized(self):
        assert classify_sequence("acgt") == "DNASequence"

    @given(dna_strategy)
    def test_dna_always_classifies_dna(self, seq):
        assert classify_sequence(seq) == "DNASequence"

    @given(protein_strategy)
    def test_protein_alphabet_classifies_protein(self, seq):
        assert classify_sequence(seq) == "ProteinSequence"


class TestTransformations:
    @given(dna_strategy)
    def test_transcribe_back_transcribe_round_trip(self, dna):
        assert back_transcribe(transcribe(dna)) == dna

    @given(dna_strategy)
    def test_transcription_result_is_rna_or_shared(self, dna):
        assert "T" not in transcribe(dna)

    @given(dna_strategy)
    def test_reverse_complement_is_involutive(self, dna):
        assert reverse_complement(reverse_complement(dna)) == dna

    @given(dna_strategy)
    def test_reverse_complement_preserves_length(self, dna):
        assert len(reverse_complement(dna)) == len(dna)

    def test_reverse_complement_example(self):
        assert reverse_complement("ACGT") == "ACGT"
        assert reverse_complement("AAA") == "TTT"

    @given(dna_strategy)
    def test_translate_length_is_half(self, dna):
        assert len(translate(dna)) == len(dna) // 2

    def test_translate_accepts_rna(self):
        assert translate("ACGU") == translate("ACGT")

    @given(st.one_of(dna_strategy, rna_strategy))
    def test_gc_content_in_unit_interval(self, seq):
        assert 0.0 <= gc_content(seq) <= 1.0

    def test_gc_content_of_empty_is_zero(self):
        assert gc_content("") == 0.0

    def test_gc_content_extremes(self):
        assert gc_content("GGCC") == 1.0
        assert gc_content("ATAT") == 0.0


class TestDigestion:
    def test_digest_cuts_after_k_and_r(self):
        assert digest("MAKWLRGG") == ["MAK", "WLR", "GG"]

    def test_digest_without_cut_sites(self):
        assert digest("MAWG") == ["MAWG"]

    @given(protein_strategy)
    def test_digest_fragments_rebuild_protein(self, protein):
        assert "".join(digest(protein)) == protein.upper()

    @given(protein_strategy)
    def test_peptide_masses_positive(self, protein):
        assert all(m > 0 for m in peptide_masses(protein))

    @given(protein_strategy)
    def test_molecular_weight_grows_with_length(self, protein):
        assert molecular_weight(protein + "G") > molecular_weight(protein)

    def test_molecular_weight_includes_water(self):
        assert molecular_weight("") == pytest.approx(18.02)
