"""The universe's search tables answer exactly what the full scans did.

``BioUniverse.identify_by_peptide_masses`` reads a peptide-mass postings
table and ``BioUniverse.rank_by_alignment`` reads a table of upper-cased
sequences, both built on first use.  ``reports.score_alignment`` computes
the toy score from its closed form.  The oracles below are the
brute-force formulas these replaced, kept verbatim and sharing no code
with them: every protein is re-digested per query and every position is
scored by a Python generator over the padded sequences.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.biodb import reports
from repro.biodb.sequences import (
    _RESIDUE_MASS,
    PROTEIN_ALPHABET,
    molecular_weight,
    peptide_masses,
)
from repro.biodb.universe import BioUniverse

SEEDS = (2014, 1, 31)


# ----------------------------------------------------------------------
# The oracles: the scans the tables replaced.
# ----------------------------------------------------------------------
def ref_pad(sequence_a, sequence_b):
    width = max(len(sequence_a), len(sequence_b))
    return sequence_a.ljust(width, "-"), sequence_b.ljust(width, "-")


def ref_score_alignment(sequence_a, sequence_b):
    padded_a, padded_b = ref_pad(sequence_a.upper(), sequence_b.upper())
    return sum(
        2 if x == y and x != "-" else -1 for x, y in zip(padded_a, padded_b)
    )


def ref_identify(universe, masses):
    best = None
    best_score = -1
    query = {round(m, 1) for m in masses}
    for protein in universe.proteins:
        own = {round(m, 1) for m in peptide_masses(protein.sequence)}
        score = len(own & query)
        if score > best_score:
            best, best_score = protein, score
    return best if best_score > 0 else None


def ref_rank(universe, sequence, limit):
    scored = sorted(
        (
            (ref_score_alignment(sequence, protein.sequence), protein.ordinal, protein)
            for protein in universe.proteins
        ),
        key=lambda item: (-item[0], item[1]),
    )
    return [(protein, score) for score, _o, protein in scored[:limit]]


def ref_scores(universe, masses):
    """Every protein's overlap with the query, by position."""
    query = {round(m, 1) for m in masses}
    return [
        len({round(m, 1) for m in peptide_masses(p.sequence)} & query)
        for p in universe.proteins
    ]


# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=SEEDS)
def universe(request):
    return BioUniverse(seed=request.param)


def own_masses(protein):
    return peptide_masses(protein.sequence)


def mass_queries(universe):
    """Own masses, subsets and ±0.04 perturbations, for every protein."""
    for protein in universe.proteins:
        masses = own_masses(protein)
        yield masses
        yield masses[::2]
        yield masses[1::2]
        yield masses[:1]
        yield [m + 0.04 for m in masses]
        yield [m - 0.04 for m in masses]
        yield [m + 0.04 if k % 2 else m - 0.04 for k, m in enumerate(masses)]


def tie_queries(universe):
    """Pairs of masses, each owned by exactly one (different) protein."""
    owners: dict[float, list[int]] = {}
    for index, protein in enumerate(universe.proteins):
        for mass in {round(m, 1) for m in own_masses(protein)}:
            owners.setdefault(mass, []).append(index)
    unique = sorted(
        (hits[0], mass) for mass, hits in owners.items() if len(hits) == 1
    )
    for (first, mass_a), (second, mass_b) in zip(unique, unique[1:]):
        if first != second:
            yield [mass_b, mass_a]


class TestIdentifyIndex:
    def test_tables_are_built_on_first_use(self):
        fresh = BioUniverse(seed=5)
        assert fresh._mass_postings is None
        assert fresh._upper_sequences is None
        fresh.identify_by_peptide_masses(own_masses(fresh.proteins[0]))
        assert fresh._mass_postings is not None
        assert fresh._upper_sequences is None
        fresh.rank_by_alignment("MKV", 1)
        assert fresh._upper_sequences is not None

    def test_own_masses_subsets_and_perturbations(self, universe):
        for masses in mass_queries(universe):
            assert universe.identify_by_peptide_masses(masses) is ref_identify(
                universe, masses
            ), masses

    def test_every_protein_identifies_itself(self, universe):
        for protein in universe.proteins:
            found = universe.identify_by_peptide_masses(own_masses(protein))
            assert found is ref_identify(universe, own_masses(protein))

    def test_ties_go_to_the_lowest_ordinal(self, universe):
        queries = list(tie_queries(universe))
        assert queries
        for masses in queries:
            scores = ref_scores(universe, masses)
            best = max(scores)
            tied = [index for index, score in enumerate(scores) if score == best]
            assert len(tied) >= 2, masses
            found = universe.identify_by_peptide_masses(masses)
            assert found is ref_identify(universe, masses)
            assert found is universe.proteins[tied[0]]

    @pytest.mark.parametrize(
        "masses", [[], [0.001], [1e9], [-5.0, 0.0], [float("inf")]]
    )
    def test_no_match_returns_none(self, universe, masses):
        assert ref_identify(universe, masses) is None
        assert universe.identify_by_peptide_masses(masses) is None

    def test_concurrent_first_build(self):
        # Threads race on both first builds; with a short switch interval
        # one may read a table another is still building, which must
        # never be observable in an answer.
        fresh = BioUniverse(seed=6)
        queries = [(own_masses(p), p.sequence.lower()) for p in fresh.proteins[:20]]
        expected = [
            (ref_identify(fresh, masses), ref_rank(fresh, sequence, 5))
            for masses, sequence in queries
        ]
        results: dict[int, list] = {}

        def worker(slot):
            results[slot] = [
                (
                    fresh.identify_by_peptide_masses(masses),
                    fresh.rank_by_alignment(sequence, 5),
                )
                for masses, sequence in queries
            ]

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {slot: expected for slot in range(4)}


# ----------------------------------------------------------------------
NON_ASCII = "éßſıΩ"
sequence_text = st.text(
    alphabet=PROTEIN_ALPHABET + PROTEIN_ALPHABET.lower() + "-" + NON_ASCII,
    max_size=70,
)


class TestAlignmentScore:
    @given(sequence_text, sequence_text)
    @example("AAAA", "AAAA")
    @example("A-A-", "A-AA")
    @example("--", "---")
    @example("", "")
    @example("", "ACD")
    @example("ßa", "SSA")
    @example("ſ-", "s-")
    @example("aé", "AÉ")
    def test_matches_the_padded_scan(self, sequence_a, sequence_b):
        assert reports.score_alignment(sequence_a, sequence_b) == ref_score_alignment(
            sequence_a, sequence_b
        )

    def test_pairwise_render_is_unchanged(self, universe):
        a, b = universe.proteins[1], universe.proteins[2]
        pairs = [
            (a.sequence, b.sequence.lower() + "-"),
            (a.sequence[:8] + "--" + a.sequence[10:], b.sequence[:8] + "-é-"),
        ]
        for sequence_a, sequence_b in pairs:
            rendered = reports.render_pairwise_alignment(
                a.name, sequence_a, b.name, sequence_b, "needle"
            )
            score = ref_score_alignment(sequence_a, sequence_b)
            assert f"# Score: {score}\n" in rendered


def ranking_queries(universe):
    proteins = universe.proteins
    longest = max(len(p.sequence) for p in proteins)
    shortest = min(len(p.sequence) for p in proteins)
    for protein in proteins[:12]:
        sequence = protein.sequence
        yield sequence
        yield sequence.lower()
        yield sequence[:10] + "-" * 5 + sequence[15:]
        yield sequence[:5] + "é" + sequence[6:]
        yield sequence[:5] + "ß" + sequence[6:]
    yield ""
    yield "-" * longest
    yield proteins[0].sequence + proteins[1].sequence
    assert len(proteins[0].sequence + proteins[1].sequence) > longest
    yield proteins[3].sequence[: shortest - 1]
    yield "W"


class TestRankByAlignment:
    @pytest.mark.parametrize("limit", [5, 3, 1, 0, 500])
    def test_matches_the_full_scan(self, universe, limit):
        for sequence in ranking_queries(universe):
            assert universe.rank_by_alignment(sequence, limit) == ref_rank(
                universe, sequence, limit
            ), sequence

    @given(sequence_text)
    def test_matches_the_full_scan_on_any_text(self, sequence):
        universe = BioUniverse(seed=2014)
        assert universe.rank_by_alignment(sequence, 5) == ref_rank(
            universe, sequence, 5
        )

    def test_equal_scores_rank_by_ordinal(self, universe):
        # An empty query scores -len(sequence) against every protein, so
        # proteins of equal length tie and must come out by ordinal.
        ranked = universe.rank_by_alignment("", len(universe.proteins))
        keys = [(-score, protein.ordinal) for protein, score in ranked]
        assert keys == sorted(keys)
        assert len({score for _p, score in ranked}) < len(ranked)


def test_molecular_weight_prices_unknown_residues_at_the_mean():
    mean = sum(_RESIDUE_MASS.values()) / len(_RESIDUE_MASS)
    assert molecular_weight("X") == 18.02 + mean
    assert molecular_weight("AXC") == 18.02 + (
        _RESIDUE_MASS["A"] + mean + _RESIDUE_MASS["C"]
    )
