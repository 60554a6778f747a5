"""``AccessionSchemes`` against the per-scheme checks it replaced.

The catalog's multi-scheme modules (the link family, the normalizing
maps, ``NormalizeOrganism``, the multi-scheme retrievals) guard with one
compiled alternation and let it name the scheme their transform
resolves under.  The guard must accept exactly what the disjunction of
one ``valid_accession`` guard per concept accepted, and the named
concept must be the first one whose scheme accepts the value — what the
transforms' ``scheme_for(concept).is_valid`` loop picked.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.biodb.accessions import SCHEMES, scheme_for
from repro.modules.catalog.common import AccessionSchemes, valid_accession
from repro.modules.catalog.mapping import LINK_FAMILIES
from repro.values import STRING
from repro.values.instances import TypedValue

CATALOG_TUPLES = [concepts for _family, concepts in LINK_FAMILIES] + [
    ("NCBITaxonId", "ScientificOrganismName"),
    tuple(SCHEMES),
    tuple(reversed(SCHEMES)),
]

NON_STRINGS = [None, 1234, 12345, 1.5, b"P10000", ("P10000",), ["P10000"], True]


def old_guard(concepts, payload) -> bool:
    inputs = {"id": TypedValue(payload, STRING)}
    return any(valid_accession("id", concept)(None, inputs) for concept in concepts)


def old_choice(concepts, accession: str) -> "str | None":
    for concept in concepts:
        if scheme_for(concept).is_valid(accession):
            return concept
    return None


def perturbed(accession: str) -> "list[str]":
    return [
        accession,
        accession + "\n",
        " " + accession,
        accession + "0",
        accession[:-1],
        accession[1:],
        accession.lower(),
        accession.upper(),
        accession.replace("0", "٣"),  # a non-ASCII digit
        accession[:1] + "_" + accession[1:],
    ]


minted = st.builds(
    lambda concept, ordinal: SCHEMES[concept].mint(ordinal),
    st.sampled_from(sorted(SCHEMES)),
    st.integers(0, 5000),
)
accessions = minted.flatmap(lambda a: st.sampled_from(perturbed(a))) | st.text(
    max_size=12
)
concept_tuples = st.sampled_from(CATALOG_TUPLES) | st.permutations(
    sorted(SCHEMES)
).flatmap(lambda order: st.integers(1, len(order)).map(lambda n: tuple(order[:n])))


def assert_same(concepts, payload):
    schemes = AccessionSchemes(concepts)
    accepted = schemes.guard("id")(None, {"id": TypedValue(payload, STRING)})
    assert accepted == old_guard(concepts, payload)
    expected = old_choice(concepts, payload) if isinstance(payload, str) else None
    assert schemes.concept_of(payload) == expected
    assert accepted == (expected is not None)


class TestAccessionSchemes:
    def test_every_minted_accession_in_every_catalog_tuple(self):
        for concepts in CATALOG_TUPLES:
            for scheme in SCHEMES.values():
                for ordinal in (0, 1, 7, 99, 4321):
                    for payload in perturbed(scheme.mint(ordinal)):
                        assert_same(concepts, payload)

    def test_non_string_payloads_are_refused(self):
        for concepts in CATALOG_TUPLES:
            for payload in NON_STRINGS:
                assert_same(concepts, payload)
        assert not AccessionSchemes(("EntrezGeneId",)).guard("id")(None, {})

    @given(concept_tuples, accessions | st.sampled_from(NON_STRINGS))
    def test_equals_the_scheme_loop(self, concepts, payload):
        assert_same(concepts, payload)

    def test_first_listed_concept_wins(self):
        both = AccessionSchemes(("EntrezGeneId", "PubMedIdentifier", "EntrezGeneId"))
        assert both.concept_of("1234") == "EntrezGeneId"
        assert both.concept_of("1234567") == "PubMedIdentifier"
