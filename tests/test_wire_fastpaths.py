"""Differential tests of the wire layer's fast paths.

Every invocation miss crosses three of them: the one-pass expat scan of
a SOAP envelope (:func:`repro.modules.interfaces.soap_operation`), the
direct C-scanner decode of a wire document
(:func:`repro.modules.interfaces.bindings_from_wire`) and the compiled
accession guards (:meth:`repro.biodb.accessions.AccessionScheme.is_valid`).
Each must agree with the formula it replaced — kept here as the oracle,
sharing no code with the fast path — on the value returned or on the
exception's class and text.  Where a fast path hands an input it rejects
to the slow formula, the tests also pin that a well-formed input never
takes that hand-off, so the agreement is the fast path's own.
"""

from __future__ import annotations

import json
import re
from unittest import mock
from xml.etree import ElementTree

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.biodb.accessions import SCHEMES
from repro.modules import interfaces
from repro.modules.errors import SoapFault, TransportError
from repro.modules.interfaces import (
    SoapEndpoint,
    bindings_from_wire,
    bindings_to_wire,
    soap_envelope,
    soap_operation,
    value_from_wire,
)
from repro.modules.model import InterfaceKind
from repro.values import STRING, TypedValue
from tests.test_interfaces import _make_module
from tests.test_wire_encoding import binding_maps

NS = "http://schemas.xmlsoap.org/soap/envelope/"


def outcome(function, argument):
    """What ``function(argument)`` does: its value, or its exception's
    class and text."""
    try:
        return "ok", function(argument)
    except Exception as exc:  # the class and text are what is compared
        return type(exc).__name__, str(exc)


# ----------------------------------------------------------------------
# SOAP envelopes
# ----------------------------------------------------------------------
def ref_operation(document):
    operation = ElementTree.fromstring(document).find(f"{{{NS}}}Body/")
    return None if operation is None else (operation.tag, operation.text)


def no_hand_off():
    """Fail if the expat pass hands a document to ElementTree."""
    return mock.patch.object(
        interfaces, "_reference_operation", side_effect=AssertionError("handed off")
    )


def envelope(body: str, root: str = "s:Envelope") -> str:
    return f'<{root} xmlns:s="{NS}">{body}</{root}>'


def in_body(operation: str) -> str:
    return envelope(f"<s:Body>{operation}</s:Body>")


WELL_FORMED = {
    "printed": soap_envelope("op", '{"x": 1}'),
    "prefixed": in_body("<op>{}</op>"),
    "entities": in_body(
        "<op>a &amp; b &lt; c &gt; &quot;d&quot; &apos;e&apos; &#65;&#x1F600;</op>"
    ),
    "cdata": in_body("<op>x<![CDATA[<y>&z;]]>w</op>"),
    "comment": in_body("<op>a<!-- c -->b</op>"),
    "pi": in_body("<op>a<?target data?>b</op>"),
    "comment only": in_body("<op><!-- c --></op>"),
    "nested child": in_body("<op>before<child>inner</child>after</op>"),
    "child first": in_body("<op><child>inner</child>after</op>"),
    "grandchild": in_body("<op><a><b>deep</b></a></op>"),
    "empty operation": in_body("<op/>"),
    "whitespace text": in_body("<op>  \n </op>"),
    "crlf text": in_body("<op>a\r\nb\rc</op>"),
    "non-ascii": in_body("<op>é \U0001f600 名前</op>"),
    "second operation": in_body("<op>one</op><op2>two</op2>"),
    "two bodies": envelope("<s:Body><a>1</a></s:Body><s:Body><b>2</b></s:Body>"),
    "empty first body": envelope("<s:Body/><s:Body><b>2</b></s:Body>"),
    "text-only first body": envelope("<s:Body>t</s:Body><s:Body><b>2</b></s:Body>"),
    "empty body": envelope("<s:Body/>"),
    "whitespace body": envelope("<s:Body>\n  </s:Body>"),
    "no body": envelope("<s:Header><h>1</h></s:Header>"),
    "header first": envelope("<s:Header><h>1</h></s:Header><s:Body><op>x</op></s:Body>"),
    "inter-element whitespace": envelope("\n  <s:Body>\n    <op>x</op>\n  </s:Body>\n"),
    "wrong namespace": '<s:Envelope xmlns:s="urn:other"><s:Body><op>x</op></s:Body></s:Envelope>',
    "unqualified body": envelope("<Body><op>x</op></Body>"),
    "default namespace": f'<Envelope xmlns="{NS}"><Body><op>x</op></Body></Envelope>',
    "prefixed operation": in_body('<p:op xmlns:p="urn:p">x</p:op>'),
    "non-envelope root": envelope("<s:Body><op>x</op></s:Body>", root="s:Other"),
    "unprefixed root": f'<root xmlns:s="{NS}"><s:Body><op>x</op></s:Body></root>',
    "body nested deeper": envelope("<w><s:Body><op>x</op></s:Body></w>"),
    "body as root": f'<s:Body xmlns:s="{NS}"><op>x</op></s:Body>',
    "attributes": in_body('<op a="1" b="&amp;&lt;">x</op>'),
    "declaration": '<?xml version="1.0" encoding="UTF-8"?>' + in_body("<op>x</op>"),
    "prolog comment and pi": "<!-- c --><?p d?>\n" + in_body("<op>x</op>"),
    "trailing comment": in_body("<op>x</op>") + "<!-- c -->\n",
    "bytes": in_body("<op>é</op>").encode("utf-8"),
    "latin-1 bytes": (
        '<?xml version="1.0" encoding="ISO-8859-1"?>' + in_body("<op>é</op>")
    ).encode("latin-1"),
}

# A document type declaration is handed to ElementTree on purpose.
DOCTYPE = {
    "internal entity": '<!DOCTYPE s:Envelope [<!ENTITY e "ent&amp;">]>'
    + in_body("<op>a&e;b</op>"),
    "external subset": '<!DOCTYPE s:Envelope SYSTEM "e.dtd">' + in_body("<op>&e;</op>"),
}

MALFORMED = {
    "empty": "",
    "whitespace": "  ",
    "garbage": "not xml at all",
    "lone bracket": "<",
    "mismatched tag": in_body("<op>x</po>"),
    "unclosed": in_body("<op>x"),
    "undefined entity": in_body("<op>&nope;</op>"),
    "bad character reference": in_body("<op>&#0;</op>"),
    "raw ampersand": in_body("<op>a & b</op>"),
    "unbound prefix": in_body("<x:op>1</x:op>"),
    "separator in namespace": in_body('<p:op xmlns:p="urn:a}b">x</p:op>'),
    "duplicate attribute": in_body('<op a="1" a="2">x</op>'),
    "two roots": in_body("<op>x</op>") * 2,
    "junk after root": in_body("<op>x</op>") + "junk",
    "text before root": "junk" + in_body("<op>x</op>"),
    "declaration not first": " " + '<?xml version="1.0"?>' + in_body("<op/>"),
    "nul character": in_body("<op>\x00</op>"),
    "lone surrogate": in_body("<op>\ud800</op>"),
    "truncated bytes": in_body("<op>é</op>").encode("utf-8")[:-3],
}


class TestSoapOperation:
    @pytest.mark.parametrize("document", WELL_FORMED.values(), ids=WELL_FORMED)
    def test_well_formed_shapes_in_one_pass(self, document):
        with no_hand_off():
            assert soap_operation(document) == ref_operation(document)

    @pytest.mark.parametrize("document", DOCTYPE.values(), ids=DOCTYPE)
    def test_doctype_documents(self, document):
        assert outcome(soap_operation, document) == outcome(ref_operation, document)

    @pytest.mark.parametrize("document", MALFORMED.values(), ids=MALFORMED)
    def test_malformed_shapes(self, document):
        got = outcome(soap_operation, document)
        assert got[0] != "ok"
        assert got == outcome(ref_operation, document)

    def test_every_truncation_of_a_request(self):
        document = soap_envelope("t.double", '{"x": {"payload": "a<b&c>d"}}')
        for end in range(len(document) + 1):
            prefix = document[:end]
            assert outcome(soap_operation, prefix) == outcome(ref_operation, prefix)

    @settings(max_examples=300)
    @given(binding_maps, st.sampled_from(["op", "t.double", "m-1Response", "é"]))
    def test_printed_envelopes(self, bindings, tag):
        document = soap_envelope(tag, bindings_to_wire(bindings))
        with no_hand_off():
            assert soap_operation(document) == ref_operation(document) == (
                tag, bindings_to_wire(bindings)
            )

    @settings(max_examples=300)
    @given(
        st.text(st.sampled_from("<>/&;!?[]-=\"' abs:xmlnop#0\n"), max_size=12),
        st.integers(0, 60),
    )
    @example("<", 30)
    @example("<![CDATA[", 40)
    @example("&amp;", 36)
    def test_spliced_envelopes(self, fragment, at):
        document = in_body("<op>x<c>y</c>z</op>")
        document = document[:at] + fragment + document[at:]
        assert outcome(soap_operation, document) == outcome(ref_operation, document)


class TestSoapEndpointFaults:
    @pytest.mark.parametrize("document", MALFORMED.values(), ids=MALFORMED)
    def test_malformed_request_fault(self, ctx, document):
        endpoint = SoapEndpoint(_make_module(InterfaceKind.SOAP_SERVICE), ctx)
        try:
            ElementTree.fromstring(document)
        except ElementTree.ParseError as exc:
            expected = "SoapFault", ("Client", f"malformed envelope: {exc}")
        except Exception as exc:  # not XML text at all: raised as it is
            expected = type(exc).__name__, str(exc)
        try:
            endpoint.handle(document)
        except SoapFault as fault:
            got = "SoapFault", (fault.fault_code, fault.fault_string)
        except Exception as exc:
            got = type(exc).__name__, str(exc)
        assert got == expected

    @pytest.mark.parametrize(
        "document",
        [
            envelope("<s:Body/>"),
            envelope("<s:Body><other>{}</other></s:Body>"),
            in_body("<t.double>{}</t.double>").replace(NS, "urn:other"),
        ],
    )
    def test_unknown_operation_fault(self, ctx, document):
        endpoint = SoapEndpoint(_make_module(InterfaceKind.SOAP_SERVICE), ctx)
        with pytest.raises(SoapFault) as fault:
            endpoint.handle(document)
        assert (fault.value.fault_code, fault.value.fault_string) == (
            "Client", "unknown operation"
        )

    def test_round_trip_in_one_pass(self, ctx):
        endpoint = SoapEndpoint(_make_module(InterfaceKind.SOAP_SERVICE), ctx)
        bindings = {"x": TypedValue("<a&b>]]>", STRING, "KeywordSet")}
        with no_hand_off():
            outputs = endpoint.call(bindings)
        assert outputs == {"out": TypedValue("<a&b>]]><a&b>]]>", STRING, "KeywordSet")}


# ----------------------------------------------------------------------
# Wire decode
# ----------------------------------------------------------------------
def ref_bindings_from_wire(document):
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise TransportError(f"malformed wire document: {exc}") from exc
    if not isinstance(data, dict):
        raise TransportError(
            f"malformed wire document: {type(data).__name__}, not an object"
        )
    return {name: value_from_wire(entry) for name, entry in data.items()}


def same_decode(document):
    got = outcome(bindings_from_wire, document)
    expected = outcome(ref_bindings_from_wire, document)
    # repr: a NaN payload is not equal to itself.
    assert got == expected or repr(got) == repr(expected)
    return got


ONE = '{"x": {"concept": "KeywordSet", "payload": "a", "structural": "String"}}'
DOCUMENTS = {
    "empty object": "{}",
    "one binding": ONE,
    "nan payload": '{"x": {"concept": null, "payload": NaN, "structural": "Float"}}',
    "empty": "",
    "whitespace": "   ",
    "leading whitespace": " " + ONE,
    "trailing whitespace": ONE + "\n",
    "padded": "\t" + ONE + " \r\n",
    "bom": "\ufeff" + ONE,
    "trailing data": ONE + "x",
    "two objects": "{}{}",
    "trailing comma": '{"x": 1,}',
    "array": "[]",
    "array of object": "[" + ONE + "]",
    "string": '"x"',
    "number": "1",
    "null": "null",
    "truncated": ONE[:-1],
    "truncated key": ONE[:5],
    "malformed value": '{"x": 1}',
    "missing structural": '{"x": {"payload": 1}}',
    "unknown structural": '{"x": {"payload": 1, "structural": "Nope"}}',
    "duplicate key": '{"x": {"payload": "a", "structural": "String"}, "x": 2}',
    "bytes": ONE.encode("utf-8"),
    "bytes with bom": b"\xef\xbb\xbf" + ONE.encode("utf-8"),
    "utf-16 bytes": ONE.encode("utf-16"),
    "invalid bytes": b"\xff\xfe\xfd",
    "bytearray": bytearray(ONE.encode("utf-8")),
}


class TestBindingsFromWire:
    @pytest.mark.parametrize("document", DOCUMENTS.values(), ids=DOCUMENTS)
    def test_documents(self, document):
        same_decode(document)

    def test_every_truncation(self):
        for end in range(len(ONE) + 1):
            same_decode(ONE[:end])

    @settings(max_examples=300)
    @given(binding_maps)
    def test_printed_documents_skip_json_loads(self, bindings):
        document = bindings_to_wire(bindings)
        with mock.patch.object(
            interfaces.json, "loads", side_effect=AssertionError("slow path")
        ):
            got = outcome(bindings_from_wire, document)
        expected = outcome(ref_bindings_from_wire, document)
        assert got == expected or repr(got) == repr(expected)

    @settings(max_examples=300)
    @given(
        st.text(st.sampled_from('{}[]",: \n\ufeffaxNn0-1.e\\'), max_size=6),
        st.integers(0, len(ONE)),
    )
    def test_spliced_documents(self, fragment, at):
        same_decode(ONE[:at] + fragment + ONE[at:])


# ----------------------------------------------------------------------
# Accession guards
# ----------------------------------------------------------------------
def near_misses(accession: str) -> list[str]:
    return [
        accession + "\n",
        accession + "\r",
        "\n" + accession,
        " " + accession,
        accession + "0",
        accession[:-1],
        accession[1:],
        accession.upper(),
        accession.lower(),
        accession.replace("0", "٠"),  # an Arabic-Indic digit matches \d
    ]


class TestAccessionGuards:
    @pytest.mark.parametrize("concept", sorted(SCHEMES))
    def test_minted_and_near_misses(self, concept):
        scheme = SCHEMES[concept]
        for ordinal in (0, 1, 7, 99, 12345):
            for accession in [scheme.mint(ordinal), *near_misses(scheme.mint(ordinal))]:
                assert scheme.is_valid(accession) == bool(
                    re.fullmatch(scheme.pattern, accession)
                ), (concept, accession)

    @settings(max_examples=400)
    @given(st.data())
    def test_fuzzed_strings(self, data):
        scheme = SCHEMES[data.draw(st.sampled_from(sorted(SCHEMES)))]
        candidate = data.draw(
            st.from_regex(scheme.pattern, fullmatch=True).flatmap(
                lambda s: st.sampled_from([s, *near_misses(s)])
            )
            | st.text(max_size=14)
        )
        assert scheme.is_valid(candidate) == bool(
            re.fullmatch(scheme.pattern, candidate)
        )

    def test_schemes_compare_and_print_by_their_fields(self):
        scheme = SCHEMES["UniProtAccession"]
        assert "_regex" not in repr(scheme)
        assert scheme == type(scheme)(scheme.concept, scheme.pattern, scheme.mint)
        assert hash(scheme) == hash(type(scheme)(scheme.concept, scheme.pattern, scheme.mint))
