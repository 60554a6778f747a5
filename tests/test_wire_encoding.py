"""Byte identity of every document printed by the canonical value encoder.

Wire documents (REST bodies, local-program stdin/stdout, SOAP bodies),
SOAP envelopes and journal rows are printed directly from
:mod:`repro.values.canonical` instead of through dicts, ``json.dumps``
and ElementTree trees.  Fault plans and conformance probes hash the wire
bytes, and campaign digests hash the journal rows, so the printers must
reproduce the old formulas byte for byte.  The oracles below are those
formulas, kept here verbatim and sharing no code with the printers.
"""

from __future__ import annotations

import hashlib
import json
import math
from xml.etree import ElementTree

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignConfig,
    CampaignJournal,
    CampaignResult,
    CampaignRunner,
    build_world,
    report_json,
    report_to_dict,
)
from repro.modules.interfaces import (
    SoapEndpoint,
    bindings_to_wire,
    soap_envelope,
)
from repro.modules.model import InterfaceKind
from repro.values import (
    FLOAT,
    STRING,
    TypedValue,
    all_types,
    bindings_wire_json,
    list_of,
    value_wire_json,
)
from tests.test_interfaces import _make_module
from tests.test_values_canonical import SCALAR_EDGES, edge_values, non_ascii_names

ENVELOPE_NS = "http://schemas.xmlsoap.org/soap/envelope/"


# ----------------------------------------------------------------------
# The oracles: the formulas the printers replaced.
# ----------------------------------------------------------------------
def ref_value_to_wire(value):
    payload = list(value.payload) if value.structural.is_list else value.payload
    return {
        "payload": payload,
        "structural": value.structural.name,
        "concept": value.concept,
    }


def ref_bindings_to_wire(bindings):
    return json.dumps(
        {name: ref_value_to_wire(value) for name, value in bindings.items()},
        sort_keys=True,
    )


def ref_envelope(tag, text):
    envelope = ElementTree.Element(f"{{{ENVELOPE_NS}}}Envelope")
    body = ElementTree.SubElement(envelope, f"{{{ENVELOPE_NS}}}Body")
    operation = ElementTree.SubElement(body, tag)
    operation.text = text
    return ElementTree.tostring(envelope, encoding="unicode")


def ref_report_json(report):
    return json.dumps(report_to_dict(report), sort_keys=True)


def ref_digest(result):
    canonical = json.dumps(
        [report_to_dict(report) for report in result.reports.values()],
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Generated values.
# ----------------------------------------------------------------------
EDGE_TEXT = [
    "", "é", "\U0001f600", "\ud800", "\x00\x1f\x7f", "\r\n\t",
    "<", "&", ">", "]]>", "a<b&c>d", "&amp;", "<![CDATA[x]]>", '"\\/',
]
EDGE_NUMBERS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e300, 5e-324,
    True, False, 0, -1, 2**64 + 1, None,
]

texts = st.text(
    st.characters() | st.sampled_from("<&>]\r\x00"), max_size=8
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
    lambda inner: st.lists(inner, max_size=3).map(tuple) | st.lists(inner, max_size=3),
    max_leaves=6,
)
concepts = st.none() | st.sampled_from(["Protein", "Séquence", "<&>"]) | texts
names = st.sampled_from(["x", "sequence", "é", "a&b", ""]) | texts


@st.composite
def typed_values(draw):
    structural = draw(st.sampled_from(all_types()))
    if structural.is_list:
        payload = tuple(draw(st.lists(payloads, max_size=3)))
    else:
        payload = draw(payloads)
    return TypedValue(payload, structural, draw(concepts))


binding_maps = st.dictionaries(names, typed_values(), max_size=4)


# ----------------------------------------------------------------------
# Wire JSON
# ----------------------------------------------------------------------
class TestWireJson:
    @settings(max_examples=400)
    @given(binding_maps)
    @example({})
    @example({"b": TypedValue(math.nan, STRING), "a": TypedValue("x", STRING, None)})
    @example({"x": TypedValue("<a href='&'>]]></a>", STRING, "é")})
    @example({"n": TypedValue((math.inf, (-0.0, (1e300,)), -math.inf), list_of(FLOAT))})
    def test_bindings_to_wire_equals_dumps(self, bindings):
        expected = ref_bindings_to_wire(bindings)
        assert bindings_to_wire(bindings) == expected
        assert bindings_wire_json(bindings) == expected

    @settings(max_examples=300)
    @given(typed_values())
    @example(TypedValue(math.nan, STRING))
    @example(TypedValue(True, STRING, None))
    def test_value_wire_json_equals_dumps(self, value):
        assert value_wire_json(value) == json.dumps(
            ref_value_to_wire(value), sort_keys=True
        )

    def test_nan_prints_as_the_wire_token(self):
        # The one difference from the canonical (cache-key) form.
        assert '"payload": NaN' in bindings_to_wire({"x": TypedValue(math.nan, STRING)})


# ----------------------------------------------------------------------
# Binding maps of each size: one binding takes the document's unsorted,
# unjoined path, more take the sorted one.  The generated values are the
# canonical encoder tests' edge values; the wire form prints NaN as
# ``NaN`` where the canonical form prints a tagged object.
# ----------------------------------------------------------------------
class TestWireBindingCounts:
    @pytest.mark.parametrize("size", [0, 1, 2, 5])
    @settings(max_examples=150)
    @given(data=st.data())
    def test_bindings_wire_json(self, size, data):
        bindings = data.draw(
            st.dictionaries(non_ascii_names, edge_values(), min_size=size, max_size=size)
        )
        assert len(bindings) == size
        expected = ref_bindings_to_wire(bindings)
        assert bindings_wire_json(bindings) == expected
        assert bindings_to_wire(bindings) == expected

    @pytest.mark.parametrize(
        "payload",
        SCALAR_EDGES + [(1, (True, (-0.0, math.nan)), 2**64), ((math.inf,),)],
        ids=repr,
    )
    def test_one_binding_each_edge_payload(self, payload):
        structural = list_of(FLOAT) if isinstance(payload, tuple) else FLOAT
        for name, concept in (("x", None), ("名前", "Séquence"), ("\U0001f600", "概念")):
            bindings = {name: TypedValue(payload, structural, concept)}
            assert bindings_wire_json(bindings) == ref_bindings_to_wire(bindings)


# ----------------------------------------------------------------------
# SOAP envelopes
# ----------------------------------------------------------------------
ENVELOPE_TEXTS = [
    "{}",
    '{"x": {"concept": null, "payload": "a<b&c>d", "structural": "String"}}',
    "&<>]]>&amp;&lt;",
    '"quoted" \'single\'',
]


class TestSoapEnvelope:
    def test_template_equals_tostring_for_every_catalog_module(self, catalog):
        for module in catalog:
            for tag in (module.module_id, f"{module.module_id}Response"):
                for text in ENVELOPE_TEXTS:
                    assert soap_envelope(tag, text) == ref_envelope(tag, text)

    @settings(max_examples=200)
    @given(binding_maps)
    def test_template_equals_tostring_for_wire_documents(self, bindings):
        text = ref_bindings_to_wire(bindings)
        assert soap_envelope("op", text) == ref_envelope("op", text)

    def test_request_and_response_envelopes(self, ctx):
        module = _make_module(InterfaceKind.SOAP_SERVICE)
        endpoint = SoapEndpoint(module, ctx)
        bindings = {"x": TypedValue("<a&b>]]>", STRING, "é")}
        request = endpoint.build_request(bindings)
        assert request == ref_envelope(module.module_id, ref_bindings_to_wire(bindings))
        response = endpoint.handle(request)
        outputs = {"out": TypedValue("<a&b>]]><a&b>]]>", STRING, "KeywordSet")}
        assert response == ref_envelope(
            f"{module.module_id}Response", ref_bindings_to_wire(outputs)
        )
        # Both receivers still parse with a real XML parser.
        assert endpoint.call(bindings) == outputs


# ----------------------------------------------------------------------
# Journal rows and campaign digests
# ----------------------------------------------------------------------
def run_campaign(tmp_path, seed, **config):
    ctx, catalog, pool = build_world(seed)
    journal = CampaignJournal(tmp_path / f"seed{seed}.sqlite")
    runner = CampaignRunner(
        ctx, catalog, pool, journal, CampaignConfig(seed=seed, **config)
    )
    try:
        result = runner.run("c")
        rows = dict(
            journal._connection.execute(
                "SELECT module_id, report_json FROM campaign_entries "
                "WHERE status = 'done'"
            )
        )
    finally:
        journal.close()
    return result, rows


def assert_rows_and_digest(result, rows):
    assert set(rows) == set(result.reports)
    for module_id, report in result.reports.items():
        expected = ref_report_json(report)
        assert report_json(report) == expected
        assert rows[module_id] == expected
    assert result.digest() == ref_digest(result)


@pytest.mark.parametrize("seed", [1, 41, 2014])
def test_catalog_rows_and_digest(tmp_path, seed):
    result, rows = run_campaign(tmp_path, seed, retry_base_delay=0.0)
    assert len(result.reports) == 252
    assert_rows_and_digest(result, rows)


def test_quarantined_rows_and_digest(tmp_path):
    """Reports carrying quarantine records (outputs missing a parameter,
    or differing between two probes) print the same rows and digest."""
    result, rows = run_campaign(
        tmp_path,
        2014,
        limit=24,
        max_attempts=1,
        retry_base_delay=0.0,
        failure_threshold=99,
        probe_rate=1.0,
        corrupt_providers=("Manchester-lab",),
        nondeterministic_providers=("NCBI",),
    )
    assert result.quarantined_combinations > 0
    assert any(report.quarantined for report in result.reports.values())
    assert_rows_and_digest(result, rows)


def test_empty_campaign_digest():
    empty = CampaignResult(campaign_id="e", seed=1, status="complete")
    assert empty.digest() == ref_digest(empty)
