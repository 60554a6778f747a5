"""The index's flat bucket tables against a scalar oracle.

:class:`SignatureIndex` keeps one dict per shape and tier, keys each LSH
band's table by the band's packed rows, and holds a one-member bucket as
the bare module id.  The oracle below is the straightforward form it
replaced: one ``set`` per bucket in three tuple-keyed tables, each band
keyed by a keyed 64-bit blake2b of its rows.  Both must give the same
candidates, statistics and candidate pairs, and the one-payload fast
path of token canonicalization must print the same bytes as the
general one.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections import defaultdict

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.examples import Binding
from repro.match import SignatureConfig, SignatureIndex, build_synthetic_catalog
from repro.match.builder import entry_from_record, entry_to_record
from repro.match.index import IndexedModule, IndexStats
from repro.match.signature import MinHashSignature, _payloads
from repro.match.synth import SyntheticCatalogConfig
from repro.values import STRING
from repro.values.canonical import sorted_payloads_json
from repro.values.instances import TypedValue


# ----------------------------------------------------------------------
# The oracle: blake2b band keys, one set per bucket, tuple-keyed tables.
# ----------------------------------------------------------------------
def oracle_band_keys(signature, config):
    if signature.is_empty:
        return ()
    packed = struct.pack(f">{len(signature.values)}Q", *signature.values)
    step = 8 * config.rows_per_band
    return tuple(
        int.from_bytes(
            hashlib.blake2b(
                packed[band * step : (band + 1) * step],
                digest_size=8,
                key=f"repro-band-{band}".encode(),
            ).digest(),
            "big",
        )
        for band in range(config.bands)
    )


class OracleIndex:
    def __init__(self, config):
        self.config = config
        self.entries = {}
        self.bands = defaultdict(set)
        self.tokens = defaultdict(set)
        self.inputs = defaultdict(set)

    def add(self, entry):
        self.entries[entry.module_id] = entry
        for band, key in enumerate(oracle_band_keys(entry.signature, self.config)):
            self.bands[(entry.shape, band, key)].add(entry.module_id)
        for token in entry.tokens:
            self.tokens[(entry.shape, token)].add(entry.module_id)
        for token in entry.input_tokens:
            self.inputs[(entry.shape, token)].add(entry.module_id)

    def candidates(self, module_id):
        entry = self.entries[module_id]
        found = set()
        for band, key in enumerate(oracle_band_keys(entry.signature, self.config)):
            found |= self.bands.get((entry.shape, band, key), set())
        for token in entry.tokens:
            found |= self.tokens.get((entry.shape, token), set())
        for token in entry.input_tokens:
            found |= self.inputs.get((entry.shape, token), set())
        found.discard(module_id)
        return sorted(found)

    def stats(self):
        sizes = [
            [len(b) for b in table.values()]
            for table in (self.bands, self.tokens, self.inputs)
        ]
        return IndexStats(
            n_modules=len(self.entries),
            n_empty=sum(1 for e in self.entries.values() if e.signature.is_empty),
            n_band_buckets=len(self.bands),
            n_token_buckets=len(self.tokens),
            n_input_buckets=len(self.inputs),
            largest_band_bucket=max(sizes[0], default=0),
            largest_token_bucket=max(sizes[1], default=0),
            largest_input_bucket=max(sizes[2], default=0),
        )

    def candidate_pairs(self):
        pairs = set()
        for table in (self.bands, self.tokens, self.inputs):
            for bucket in table.values():
                members = sorted(bucket)
                for i, left in enumerate(members):
                    pairs.update((left, right) for right in members[i + 1 :])
        return sorted(pairs)


def built_index(world, config=SignatureConfig()):
    index = SignatureIndex(config)
    for module in world.modules:
        index.add_module(module, world.examples_by_id[module.module_id])
    return index


# ----------------------------------------------------------------------
@pytest.fixture(
    scope="module",
    params=[(2014, 300), (31, 300), (2014, 1000), (31, 1000)],
    ids=lambda p: f"seed{p[0]}-n{p[1]}",
)
def indexed_world(request):
    seed, n_modules = request.param
    world = build_synthetic_catalog(
        SyntheticCatalogConfig(seed=seed, n_modules=n_modules)
    )
    index = built_index(world)
    oracle = OracleIndex(index.config)
    for module_id in index.module_ids():
        oracle.add(index.entry(module_id))
    return world, index, oracle


class TestTablesEqualOracle:
    def test_candidates_of_every_module(self, indexed_world):
        _, index, oracle = indexed_world
        for module_id in index.module_ids():
            assert index.candidates(module_id) == oracle.candidates(module_id)

    def test_stats(self, indexed_world):
        _, index, oracle = indexed_world
        assert index.stats() == oracle.stats()

    def test_candidate_pairs(self, indexed_world):
        _, index, oracle = indexed_world
        assert index.candidate_pairs() == oracle.candidate_pairs()

    def test_foreign_entry_under_an_indexed_id(self, indexed_world):
        # A journal record rebuilds an equal entry that is not the
        # stored object: it must pack its own keys to the same answer.
        _, index, _ = indexed_world
        for module_id in index.module_ids()[::7]:
            stored = index.entry(module_id)
            foreign = entry_from_record(entry_to_record(stored))
            assert foreign is not stored
            assert index.candidates_for_entry(foreign) == index.candidates(module_id)


# ----------------------------------------------------------------------
CONFIG = SignatureConfig(width=8, bands=4, seed=1)


def make_entry(module_id, values, tokens=(), input_tokens=()):
    return IndexedModule(
        module_id=module_id,
        shape=(1, 1),
        signature=MinHashSignature(values=tuple(values), n_tokens=1),
        tokens=frozenset(tokens),
        input_tokens=frozenset(input_tokens),
    )


def bucket(index, band, values):
    """The raw bucket of ``band`` for the rows ``values``."""
    key = struct.pack(f">{len(values)}Q", *values)
    return index._tables[(1, 1)][band].get(key)


class TestBuckets:
    def test_equal_rows_in_different_bands_are_not_band_mates(self):
        index = SignatureIndex(CONFIG)
        # b's band 1 holds the rows a's band 0 holds; every other band differs.
        index.add(make_entry("a", [1, 2, 10, 11, 12, 13, 14, 15]))
        index.add(make_entry("b", [20, 21, 1, 2, 22, 23, 24, 25]))
        assert index.candidates("a") == []
        assert index.candidates("b") == []
        assert index.candidate_pairs() == []
        assert index.stats().n_band_buckets == 8
        assert index.stats().largest_band_bucket == 1

    def test_singleton_set_singleton_empty(self):
        index = SignatureIndex(CONFIG)
        rows = [1, 2, 3, 4, 5, 6, 7, 8]
        a = make_entry("a", rows, tokens=[9], input_tokens=[10])
        b = make_entry("b", rows, tokens=[9], input_tokens=[10])

        index.add(a)
        token_table, input_table = index._tables[(1, 1)][-2:]
        assert bucket(index, 0, rows[:2]) == "a"
        assert (token_table[9], input_table[10]) == ("a", "a")
        index.add(b)
        assert bucket(index, 0, rows[:2]) == {"a", "b"}
        assert (token_table[9], input_table[10]) == ({"a", "b"}, {"a", "b"})
        assert index.candidates("a") == ["b"]
        index.remove("a")
        assert bucket(index, 0, rows[:2]) == "b"
        assert (token_table[9], input_table[10]) == ("b", "b")
        assert index.candidates("b") == []
        index.remove("b")
        assert bucket(index, 0, rows[:2]) is None
        assert token_table == {} and input_table == {}
        assert index.stats() == IndexStats()

        # Re-adding is idempotent, from a singleton bucket and from a set.
        index.add(a)
        index.add(a)
        assert bucket(index, 0, rows[:2]) == "a"
        index.add(b)
        index.add(b)
        index.add(a)
        assert bucket(index, 0, rows[:2]) == {"a", "b"}
        assert index.stats().largest_band_bucket == 2
        assert index.candidate_pairs() == [("a", "b")]

    def test_empty_signature_takes_no_band_bucket(self):
        index = SignatureIndex(CONFIG)
        empty = MinHashSignature(values=(2**64 - 1,) * CONFIG.width, n_tokens=0)
        for module_id in ("a", "b"):
            index.add(IndexedModule(module_id, (1, 1), empty, frozenset()))
        assert index.candidates("a") == []
        assert index.stats().n_band_buckets == 0
        assert index.stats().n_empty == 2


# ----------------------------------------------------------------------
single_payloads = st.recursive(
    st.sampled_from([math.nan, -0.0, 0.0, 1, 1.0, True, False, "", "é", "☃"])
    | st.integers()
    | st.booleans()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple),
    max_leaves=8,
)


@given(single_payloads)
@example("ünïcödé ☃ \"quoted\" \\ \n")
@example((math.nan, (-0.0, ["x", (True,)])))
def test_one_payload_side_prints_sorted_payloads_json(payload):
    bindings = (Binding("p", TypedValue(payload, STRING)),)
    assert _payloads(bindings) == sorted_payloads_json([payload])
