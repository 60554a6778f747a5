"""The lane-parallel minhash rows against scalar oracles.

:class:`MinHashRows` packs a token's rows into one Python int, one row
per 128-bit lane, runs splitmix64 and the element-wise minimum over all
lanes at once, and hashes with keyed blake2b prototypes it copies per
hash.  Every row, minimum, signature, band key and journaled record must
equal the one-row-at-a-time reference of ``tests/test_match_sketch.py``
— for any 64-bit base (0, 2**64 - 1, bases whose first add carries out
of 64 bits), at any width, and on whole synthetic catalogs.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign.journal import CampaignJournal
from repro.match import IndexBuilder, SignatureConfig, build_synthetic_catalog
from repro.match.builder import entry_to_record, load_index
from repro.match.signature import MinHashRows, band_keys, compute_signature
from repro.match.synth import SyntheticCatalogConfig
from tests.test_match_sketch import (
    MASK64,
    ref_band_keys,
    ref_behavior_token,
    ref_blake64,
    ref_input_token,
    ref_mix64,
    ref_signature,
)

GOLDEN = 0x9E3779B97F4A7C15
WIDTHS = [1, 3, 16, 64, 128]

words = st.integers(min_value=0, max_value=MASK64)
#: Values whose first splitmix64 add (``+ GOLDEN``) carries past bit 63.
carrying = st.integers(min_value=(1 << 64) - GOLDEN, max_value=MASK64)
bases = words | carrying | st.sampled_from([0, 1, MASK64, MASK64 - 1, 1 << 63])


def rows_for(width: int) -> MinHashRows:
    return MinHashRows(SignatureConfig(width=width, bands=1))


def pack(values) -> int:
    return sum(value << (128 * lane) for lane, value in enumerate(values))


def ref_rows(base: int, width: int) -> "tuple[int, ...]":
    return tuple(ref_mix64(base ^ ref_mix64(row + 1)) for row in range(width))


# ----------------------------------------------------------------------
class TestLanes:
    @settings(max_examples=200)
    @given(bases, st.sampled_from(WIDTHS))
    @example(0, 64)
    @example(MASK64, 64)
    @example(MASK64, 128)
    @example((1 << 64) - GOLDEN, 3)
    def test_mix_equals_scalar_splitmix(self, base, width):
        rows = rows_for(width)
        # Equal as packed ints too: nothing is left above a row's 64 bits.
        assert rows.mix(base) == pack(ref_rows(base, width))
        assert rows.unpack(rows.mix(base)) == ref_rows(base, width)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_some_lane_add_carries(self, width):
        # The base that makes lane 0's add carry: the mix must still
        # agree, so no carry leaked into lane 1.
        base = ((1 << 64) - GOLDEN) ^ ref_mix64(1)
        assert (base ^ ref_mix64(1)) + GOLDEN > MASK64
        rows = rows_for(width)
        assert rows.unpack(rows.mix(base)) == ref_rows(base, width)

    @settings(max_examples=200)
    @given(st.sampled_from(WIDTHS).flatmap(
        lambda width: st.tuples(
            st.lists(bases, min_size=width, max_size=width),
            st.lists(bases, min_size=width, max_size=width),
        )
    ))
    def test_lane_min_equals_min(self, pair):
        left, right = pair
        rows = rows_for(len(left))
        low = rows.minimum(pack(left), pack(right))
        assert rows.unpack(low) == tuple(map(min, left, right))

    @pytest.mark.parametrize("width", WIDTHS)
    def test_lane_min_on_ties_and_extremes(self, width):
        rows = rows_for(width)
        cycle = [0, MASK64, 1 << 63, MASK64 - 1, 0, 7]
        left = [cycle[lane % len(cycle)] for lane in range(width)]
        right = [cycle[(lane + 1) % len(cycle)] for lane in range(width)]
        for a, b in ((left, right), (right, left), (left, left)):
            assert rows.unpack(rows.minimum(pack(a), pack(b))) == tuple(
                map(min, a, b)
            )

    @settings(max_examples=100)
    @given(st.lists(words, min_size=1, max_size=8), st.sampled_from(WIDTHS),
           st.integers(0, 5000))
    def test_token_rows_and_signature_values(self, tokens, width, seed):
        config = SignatureConfig(width=width, bands=1, seed=seed)
        rows = MinHashRows(config)
        salt = f"repro-minhash-{seed}".encode()
        expected = [
            ref_rows(ref_blake64(token.to_bytes(8, "big"), salt), width)
            for token in tokens
        ]
        for token, token_rows in zip(tokens, expected):
            assert rows.unpack(rows.lanes(token)) == token_rows
        assert rows.signature_values(frozenset(tokens)) == tuple(
            min(column) for column in zip(*expected)
        )


# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=[2014, 31])
def world(request):
    return build_synthetic_catalog(
        SyntheticCatalogConfig(seed=request.param, n_modules=300)
    )


def assert_reference_entry(entry, examples, config):
    values, n_tokens = ref_signature(examples, config)
    assert entry.signature.values == values
    assert entry.signature.n_tokens == n_tokens
    assert entry.tokens == {ref_behavior_token(e) for e in examples}
    assert entry.input_tokens == {ref_input_token(e) for e in examples}
    assert band_keys(entry.signature, config) == ref_band_keys(
        values, n_tokens, config
    )


class TestCatalogsEqualReference:
    def test_synthetic_entries(self, world, tmp_path):
        config = SignatureConfig()
        index = IndexBuilder(CampaignJournal(tmp_path / "match.sqlite")).build(
            world.modules, world.examples_by_id
        )
        for module in world.modules:
            examples = world.examples_by_id[module.module_id]
            entry = index.entry(module.module_id)
            assert_reference_entry(entry, examples, config)
            assert compute_signature(examples, config) == entry.signature

    def test_journal_resume_reads_back_reference_entries(self, world, tmp_path):
        config = SignatureConfig()
        path = tmp_path / "match.sqlite"
        IndexBuilder(CampaignJournal(path)).build(
            world.modules[: len(world.modules) // 3], world.examples_by_id
        )
        journal = CampaignJournal(path)
        resumed = IndexBuilder(journal).build(world.modules, world.examples_by_id)
        loaded = load_index(CampaignJournal(path))
        records = journal.signatures("match-index")
        assert len(records) == len(world.modules)
        for module in world.modules:
            examples = world.examples_by_id[module.module_id]
            entry = loaded.entry(module.module_id)
            assert entry == resumed.entry(module.module_id)
            assert_reference_entry(entry, examples, config)
            assert json.loads(json.dumps(records[module.module_id])) == (
                entry_to_record(entry)
            )
