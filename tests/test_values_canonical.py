"""Property tests of the canonical value encoder against ``json.dumps``.

:mod:`repro.values.canonical` assembles cache keys, §6 behavior/input
token documents and drift keys from the C string escaper instead of
``json.dumps``.  Journaled index builds store tokens hashed from those
bytes, so the encoder must reproduce the old formulas byte for byte.
The oracle below is those formulas, kept here verbatim and sharing no
code with the encoder — on adversarial payloads (lone surrogates,
non-BMP text, NaN, ±inf, ``-0.0``, bools, ints past 2⁶⁴, nested
tuples), ``None``/non-ASCII concepts and 0–4 bindings, and on every
binding the paper catalog and the synthetic world produce.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.examples import Binding, DataExample
from repro.engine import canonical_key
from repro.match import build_synthetic_catalog
from repro.match.signature import behavior_token, behavior_tokens, input_token
from repro.match.synth import SyntheticCatalogConfig
from repro.obs.drift import _output_signature, input_key
from repro.values import (
    STRING,
    TypedValue,
    all_types,
    bindings_json,
    list_of,
    payload_json,
)


# ----------------------------------------------------------------------
# The oracle: the json.dumps formulas the encoder replaced.
# ----------------------------------------------------------------------
def ref_normalize(payload):
    if isinstance(payload, float) and math.isnan(payload):
        return {"__float__": "nan"}
    if isinstance(payload, (tuple, list)):
        return [ref_normalize(item) for item in payload]
    return payload


def ref_payload_json(payload):
    return json.dumps(ref_normalize(payload), sort_keys=True)


def ref_bindings_json(bindings):
    return json.dumps(
        {
            name: {
                "payload": ref_normalize(value.payload),
                "structural": value.structural.name,
                "concept": value.concept,
            }
            for name, value in sorted(bindings.items())
        },
        sort_keys=True,
    )


def ref_blake64(data, salt):
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8, key=salt).digest(), "big"
    )


def ref_side(bindings):
    return sorted(ref_payload_json(b.value.payload) for b in bindings)


def ref_behavior_token(data_example):
    document = json.dumps(
        {"in": ref_side(data_example.inputs), "out": ref_side(data_example.outputs)},
        sort_keys=True,
    )
    return ref_blake64(document.encode("utf-8"), b"repro-behavior")


def ref_input_token(data_example):
    document = json.dumps(ref_side(data_example.inputs))
    return ref_blake64(document.encode("utf-8"), b"repro-inputs")


def ref_drift_form(payload):
    return json.dumps(payload, sort_keys=True, default=repr)


def ref_input_key(data_example):
    return tuple(
        sorted((b.parameter, ref_drift_form(b.value.payload)) for b in data_example.inputs)
    )


def ref_output_signature(data_example):
    return {b.parameter: ref_drift_form(b.value.payload) for b in data_example.outputs}


# ----------------------------------------------------------------------
# Generated values.
# ----------------------------------------------------------------------
EDGE_TEXT = ["", "\ud800", "\udfff", "a\ud83d", "\U0001f600", "é", '"\\/', "\x00\x1f\x7f", " "]
EDGE_NUMBERS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1, 1.0, True, False, None,
    2**64, 2**64 + 1, -(2**64) - 1, 10**40, 5e-324, 1e308,
]

texts = st.text(
    st.characters() | st.characters(categories=["Cs"]) | st.characters(min_codepoint=0x10000),
    max_size=6,
)
scalars = (
    st.sampled_from(EDGE_TEXT + EDGE_NUMBERS)
    | texts
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.booleans()
)
payloads = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(texts, inner, max_size=2),
    max_leaves=6,
)
concepts = st.none() | st.sampled_from(["Protein", "Séquence", "概念", "\ud800"]) | texts
names = st.sampled_from(["x", "sequence", "é", "\U0001f600", ""]) | texts


@st.composite
def typed_values(draw):
    structural = draw(st.sampled_from(all_types()))
    if structural.is_list:
        payload = tuple(draw(st.lists(payloads, max_size=3)))
    else:
        payload = draw(payloads)
    return TypedValue(payload, structural, draw(concepts))


binding_maps = st.dictionaries(names, typed_values(), max_size=4)


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


data_examples = st.builds(
    make_example, st.lists(payloads, max_size=4), st.lists(payloads, max_size=4)
)


class _Module:
    module_id = "m"


# ----------------------------------------------------------------------
class TestEncoderEqualsDumps:
    @settings(max_examples=300)
    @given(payloads)
    @example("\ud800\U0001f600")
    @example((1, (math.nan, [True, -0.0]), 2**64 + 1))
    def test_payload_json(self, payload):
        assert payload_json(payload) == ref_payload_json(payload)

    @settings(max_examples=300)
    @given(binding_maps)
    @example({})
    @example({"b": TypedValue(math.nan, STRING), "a": TypedValue("x", STRING, "é")})
    @example({"xs": TypedValue((math.inf, (-0.0,)), list_of(STRING), None)})
    def test_canonical_key(self, bindings):
        expected = ref_bindings_json(bindings)
        assert bindings_json(bindings) == expected
        assert canonical_key(_Module(), bindings) == ("m", expected)

    @settings(max_examples=200)
    @given(st.lists(data_examples, max_size=4))
    @example([make_example([], [])])
    @example([make_example(["\udfff", math.nan], [(1, 1.0, True)])])
    def test_tokens(self, examples):
        for data_example in examples:
            assert behavior_token(data_example) == ref_behavior_token(data_example)
            assert input_token(data_example) == ref_input_token(data_example)
        sink = set()
        assert behavior_tokens(examples, input_sink=sink) == {
            ref_behavior_token(e) for e in examples
        }
        assert sink == {ref_input_token(e) for e in examples}


# ----------------------------------------------------------------------
# Binding maps of each size.  One binding takes the document's unsorted,
# unjoined path and more take the sorted one; both must print the
# formula's bytes for the payloads and names that stress the encoder.
# ----------------------------------------------------------------------
SCALAR_EDGES = [
    0, 1, -1, True, False, None, 0.0, -0.0, 1.5, math.inf, -math.inf,
    math.nan, 2**63, 2**64 + 1, -(2**64) - 1, 10**40, 5e-324, 1e308, "é",
]
edge_payloads = st.recursive(
    st.sampled_from(SCALAR_EDGES) | st.integers() | st.booleans()
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=5,
)
non_ascii_names = st.sampled_from(["é", "名前", "\U0001f600", "\ud800", "x"]) | texts
non_ascii_concepts = st.none() | st.sampled_from(["Séquence", "概念", "\U0001f600"])


@st.composite
def edge_values(draw):
    structural = draw(st.sampled_from(all_types()))
    payload = draw(edge_payloads)
    if structural.is_list and not isinstance(payload, tuple):
        payload = (payload,)
    return TypedValue(payload, structural, draw(non_ascii_concepts))


class TestBindingCounts:
    @pytest.mark.parametrize("size", [0, 1, 2, 5])
    @settings(max_examples=150)
    @given(data=st.data())
    def test_bindings_json(self, size, data):
        bindings = data.draw(
            st.dictionaries(non_ascii_names, edge_values(), min_size=size, max_size=size)
        )
        assert len(bindings) == size
        expected = ref_bindings_json(bindings)
        assert bindings_json(bindings) == expected
        assert canonical_key(_Module(), bindings) == ("m", expected)

    @pytest.mark.parametrize(
        "payload",
        SCALAR_EDGES + [(1, (True, (-0.0, math.nan)), 2**64), ((math.inf,),)],
        ids=repr,
    )
    def test_one_binding_each_edge_payload(self, payload):
        structural = list_of(STRING) if isinstance(payload, tuple) else STRING
        for name, concept in (("x", None), ("名前", "Séquence"), ("\U0001f600", "概念")):
            bindings = {name: TypedValue(payload, structural, concept)}
            assert bindings_json(bindings) == ref_bindings_json(bindings)
            assert payload_json(payload) == ref_payload_json(payload)


# ----------------------------------------------------------------------
# Drift compared payloads by json.dumps(default=repr), which prints NaN
# as ``NaN`` where the encoder prints a tagged object.  The strings differ
# but the equality they induce must not, for every payload a module can
# produce (scalars, text, nested tuples and lists).
# ----------------------------------------------------------------------
drift_payloads = st.recursive(
    st.sampled_from(EDGE_TEXT + EDGE_NUMBERS + ["NaN", "nan"]) | st.integers(-2, 2),
    lambda inner: st.lists(inner, max_size=2) | st.lists(inner, max_size=2).map(tuple),
    max_leaves=4,
)


class TestDriftEqualityUnchanged:
    @settings(max_examples=200)
    @given(st.lists(drift_payloads, min_size=2, max_size=6))
    def test_payload_equality(self, values):
        for a, b in itertools.combinations(values, 2):
            assert (payload_json(a) == payload_json(b)) == (
                ref_drift_form(a) == ref_drift_form(b)
            )

    @settings(max_examples=150)
    @given(
        st.lists(
            st.builds(
                make_example,
                st.lists(drift_payloads, max_size=2),
                st.lists(drift_payloads, max_size=2),
            ),
            min_size=2,
            max_size=5,
        )
    )
    def test_input_key_and_output_signature(self, examples):
        for a, b in itertools.combinations(examples, 2):
            assert (input_key(a) == input_key(b)) == (
                ref_input_key(a) == ref_input_key(b)
            )
            assert (_output_signature(a) == _output_signature(b)) == (
                ref_output_signature(a) == ref_output_signature(b)
            )


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def world_examples(setup):
    catalog = [e for report in setup.reports.values() for e in report.examples]
    world = build_synthetic_catalog(SyntheticCatalogConfig())
    synthetic = [e for examples in world.examples_by_id.values() for e in examples]
    assert catalog and synthetic
    return catalog + synthetic


def test_every_catalog_and_synthetic_binding(world_examples):
    for data_example in world_examples:
        for side in (data_example.inputs, data_example.outputs):
            bindings = {b.parameter: b.value for b in side}
            assert bindings_json(bindings) == ref_bindings_json(bindings)
            for b in side:
                assert payload_json(b.value.payload) == ref_payload_json(b.value.payload)
        assert behavior_token(data_example) == ref_behavior_token(data_example)
        assert input_token(data_example) == ref_input_token(data_example)
