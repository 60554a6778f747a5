"""Property tests of the index sketch path against a plain reference.

:meth:`SignatureIndex.sketch` takes both token kinds of an example from
one canonicalization pass, reads each token's minhash rows from the
index's row memo and keeps each entry's band keys.  None of that may
change a byte: the reference below is the straightforward per-example,
per-token loop, and every token set, signature and band key the index
produces must equal it — on adversarial payloads (NaN, ``-0.0``,
``1``/``1.0``/``True``, nested tuples and lists, empty sides, duplicate
examples, no examples at all) as much as on catalog values.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.examples import Binding, DataExample
from repro.match import SignatureConfig, SignatureIndex, build_synthetic_catalog
from repro.match.builder import entry_from_record, entry_to_record
from repro.match.index import IndexedModule
from repro.match.signature import (
    EMPTY_ROW,
    MinHashRows,
    band_keys,
    behavior_tokens,
    compute_signature,
    input_tokens,
)
from repro.match.synth import SyntheticCatalogConfig
from repro.values import STRING
from repro.values.instances import TypedValue

MASK64 = (1 << 64) - 1


# ----------------------------------------------------------------------
# The reference: one canonical dump per binding per token kind, one
# blake2b per token per signature, every row mixed for every module.
# ----------------------------------------------------------------------
def ref_blake64(data, salt):
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8, key=salt[:64]).digest(), "big"
    )


def ref_mix64(value):
    value = (value + 0x9E3779B97F4A7C15) & MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & MASK64
    return value ^ (value >> 31)


def ref_canonical_payload(payload):
    """The payload normalizer, copied so the reference shares no code
    with the encoder under test: NaN becomes a tagged token, tuples
    become lists, recursively."""
    if isinstance(payload, float) and math.isnan(payload):
        return {"__float__": "nan"}
    if isinstance(payload, (tuple, list)):
        return [ref_canonical_payload(item) for item in payload]
    return payload


def ref_dumps(bindings):
    return sorted(
        json.dumps(ref_canonical_payload(b.value.payload), sort_keys=True)
        for b in bindings
    )


def ref_behavior_token(data_example):
    document = json.dumps(
        {"in": ref_dumps(data_example.inputs), "out": ref_dumps(data_example.outputs)},
        sort_keys=True,
    )
    return ref_blake64(document.encode("utf-8"), b"repro-behavior")


def ref_input_token(data_example):
    document = json.dumps(ref_dumps(data_example.inputs))
    return ref_blake64(document.encode("utf-8"), b"repro-inputs")


def ref_signature(examples, config):
    tokens = {ref_behavior_token(e) for e in examples}
    if not tokens:
        return (EMPTY_ROW,) * config.width, 0
    salt = f"repro-minhash-{config.seed}".encode()
    seeded = [ref_blake64(t.to_bytes(8, "big"), salt) for t in sorted(tokens)]
    values = tuple(
        min(ref_mix64(base ^ ref_mix64(row + 1)) for base in seeded)
        for row in range(config.width)
    )
    return values, len(tokens)


def ref_band_keys(values, n_tokens, config):
    if n_tokens == 0:
        return ()
    rows = config.rows_per_band
    keys = []
    for band in range(config.bands):
        chunk = values[band * rows : (band + 1) * rows]
        document = b"".join(value.to_bytes(8, "big") for value in chunk)
        keys.append(ref_blake64(document, f"repro-band-{band}".encode()))
    return tuple(keys)


# ----------------------------------------------------------------------
# Generated examples.  Tokens hash payloads only (names, structural
# types and concepts are erased), so every payload is carried as STRING.
# ----------------------------------------------------------------------
EDGE = [math.nan, -0.0, 0.0, 1, 1.0, True, False, "", "1"]

payloads = st.recursive(
    st.sampled_from(EDGE)
    | st.integers(-3, 3)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)


def make_example(inputs, outputs):
    return DataExample(
        module_id="m",
        inputs=tuple(
            Binding(f"i{n}", TypedValue(p, STRING)) for n, p in enumerate(inputs)
        ),
        outputs=tuple(
            Binding(f"o{n}", TypedValue(p, STRING)) for n, p in enumerate(outputs)
        ),
    )


@st.composite
def example_lists(draw):
    examples = draw(
        st.lists(
            st.builds(
                make_example,
                st.lists(payloads, max_size=3),
                st.lists(payloads, max_size=3),
            ),
            max_size=5,
        )
    )
    if examples and draw(st.booleans()):
        examples += draw(st.lists(st.sampled_from(examples), max_size=3))
    return examples


EDGE_EXAMPLES = [
    make_example([math.nan], [math.nan]),
    make_example([-0.0], [0.0]),
    make_example([1], [1.0]),
    make_example([1.0], [True]),
    make_example([True], [1]),
    make_example([(1, (2.0, [True]))], [[1, [2.0, (True,)]]]),
    make_example([], ["x"]),
    make_example(["x"], []),
    make_example([], []),
]

CONFIGS = [SignatureConfig(), SignatureConfig(width=12, bands=4, seed=7)]


@pytest.fixture(scope="module")
def world():
    return build_synthetic_catalog(SyntheticCatalogConfig(n_modules=48))


def built_index(world, config=SignatureConfig()):
    index = SignatureIndex(config)
    for module in world.modules:
        index.add_module(module, world.examples_by_id[module.module_id])
    return index


# ----------------------------------------------------------------------
class TestSketchEqualsReference:
    @settings(max_examples=150)
    @given(example_lists())
    @example([])
    @example(EDGE_EXAMPLES)
    @example(EDGE_EXAMPLES + EDGE_EXAMPLES[:3])
    def test_token_sets(self, examples):
        behavior = {ref_behavior_token(e) for e in examples}
        inputs = {ref_input_token(e) for e in examples}
        assert behavior_tokens(examples) == behavior
        assert input_tokens(examples) == inputs
        sink = set()
        assert behavior_tokens(examples, input_sink=sink) == behavior
        assert sink == inputs

    @settings(max_examples=100)
    @given(st.lists(example_lists(), min_size=1, max_size=4), st.sampled_from(CONFIGS))
    @example([[], EDGE_EXAMPLES, EDGE_EXAMPLES[::-1], EDGE_EXAMPLES[:1] * 3],
             CONFIGS[0])
    def test_signatures_and_band_keys_through_one_memo(self, world, modules, config):
        # Several modules through one index: later modules read rows the
        # earlier ones put in the memo.
        index = SignatureIndex(config)
        module = world.modules[0]
        for examples in modules:
            values, n_tokens = ref_signature(examples, config)
            entry = index.sketch(module, examples)
            assert entry.signature.values == values
            assert entry.signature.n_tokens == n_tokens
            assert entry.tokens == {ref_behavior_token(e) for e in examples}
            assert entry.input_tokens == {ref_input_token(e) for e in examples}
            assert compute_signature(examples, config) == entry.signature
            assert band_keys(entry.signature, config) == ref_band_keys(
                values, n_tokens, config
            )

    def test_memo_of_another_config_is_refused(self):
        with pytest.raises(ValueError, match="row memo"):
            compute_signature(EDGE_EXAMPLES, CONFIGS[0], rows=MinHashRows(CONFIGS[1]))

    @pytest.mark.parametrize("config", CONFIGS)
    def test_synthetic_world_entries(self, world, config):
        index = built_index(world, config)
        for module in world.modules:
            examples = world.examples_by_id[module.module_id]
            values, n_tokens = ref_signature(examples, config)
            entry = index.entry(module.module_id)
            assert entry.signature.values == values
            assert entry.tokens == {ref_behavior_token(e) for e in examples}
            assert entry.input_tokens == {ref_input_token(e) for e in examples}


def assert_same_index(index, expected):
    assert index.stats() == expected.stats()
    assert index.candidate_pairs() == expected.candidate_pairs()
    for module_id in expected.module_ids():
        assert index.candidates(module_id) == expected.candidates(module_id)


# ----------------------------------------------------------------------
class TestStoredBandKeys:
    def test_journal_round_trip_builds_the_same_index(self, world):
        built = built_index(world)
        loaded = SignatureIndex()
        for module_id in built.module_ids():
            record = json.loads(json.dumps(entry_to_record(built.entry(module_id))))
            loaded.add(entry_from_record(record))
        assert_same_index(loaded, built)

    def test_remove_then_readd_leaves_no_stale_keys(self, world):
        index = built_index(world)
        first, second = world.modules[0], world.modules[-1]
        moved = index.entry(first.module_id)
        index.remove(first.module_id)
        index.remove(first.module_id)  # absent: a no-op
        # Re-add the id carrying another module's behavior: only the new
        # band keys may bucket it.
        donor = index.entry(second.module_id)
        readded = IndexedModule(
            module_id=first.module_id,
            shape=donor.shape,
            signature=donor.signature,
            tokens=donor.tokens,
            input_tokens=donor.input_tokens,
        )
        index.add(readded)
        fresh = SignatureIndex()
        for module in world.modules:
            if module is not first:
                fresh.add(index.entry(module.module_id))
        fresh.add(readded)
        assert moved.signature != readded.signature
        assert_same_index(index, fresh)
        # Adding over an indexed id replaces the entry in place.
        index.add(moved)
        assert_same_index(index, built_index(world))

    def test_unindexed_entry_under_an_indexed_id_uses_its_own_keys(self, world):
        index = built_index(world)
        config = index.config
        keys = {
            module_id: band_keys(index.entry(module_id).signature, config)
            for module_id in index.module_ids()
        }

        def band_mates(module_id):
            shape = index.entry(module_id).shape
            return {
                other
                for other, other_keys in keys.items()
                if index.entry(other).shape == shape
                and any(a == b for a, b in zip(keys[module_id], other_keys))
            }

        # A pair whose band neighbourhoods differ, so answering with the
        # indexed entry's keys would show.
        query_id, donor_id = next(
            (a, b)
            for a in index.module_ids()
            for b in index.module_ids()
            if band_mates(a) - {a, b} != band_mates(b) - {a, b}
        )
        donor = index.entry(donor_id)
        foreign = IndexedModule(
            module_id=query_id,
            shape=donor.shape,
            signature=donor.signature,
            tokens=frozenset(),
            input_tokens=frozenset(),
        )
        assert index.candidates_for_entry(foreign) == sorted(
            band_mates(donor_id) - {query_id}
        )
        assert index.candidates_for_entry(index.entry(query_id)) == (
            index.candidates(query_id)
        )
