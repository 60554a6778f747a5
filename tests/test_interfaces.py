"""Tests for the simulated SOAP / REST / local supply interfaces."""

import pytest

from repro.modules.behavior import BehaviorSpec, Branch
from repro.modules.errors import (
    InvalidInputError,
    ModuleUnavailableError,
    RestError,
    SoapFault,
    TransportError,
)
from repro.modules.interfaces import (
    LocalProgram,
    RestEndpoint,
    SoapEndpoint,
    bindings_from_wire,
    bindings_to_wire,
    invoke_via_interface,
    value_from_wire,
    value_to_wire,
)
from repro.modules.model import Category, InterfaceKind, Module, Parameter
from repro.values import FLOAT, STRING, TypedValue, list_of


def _double(_ctx, inputs):
    return {"out": TypedValue(inputs["x"].payload * 2, STRING, "KeywordSet")}


def _make_module(interface: InterfaceKind) -> Module:
    return Module(
        module_id="t.double",
        name="Double",
        category=Category.DATA_ANALYSIS,
        interface=interface,
        provider="test",
        inputs=(Parameter("x", STRING, "KeywordSet"),),
        outputs=(Parameter("out", STRING, "KeywordSet"),),
        behavior=BehaviorSpec(
            (
                Branch(
                    "double",
                    lambda ctx, ins: not ins["x"].payload.startswith("!"),
                    _double,
                ),
            )
        ),
    )


class TestWireSerialization:
    def test_scalar_round_trip(self):
        value = TypedValue("abc", STRING, "KeywordSet")
        assert value_from_wire(value_to_wire(value)) == value

    def test_list_round_trip_restores_tuple(self):
        value = TypedValue((1.5, 2.0), list_of(FLOAT), "PeptideMassList")
        restored = value_from_wire(value_to_wire(value))
        assert restored == value
        assert isinstance(restored.payload, tuple)

    def test_bindings_round_trip(self):
        bindings = {"a": TypedValue("x", STRING), "b": TypedValue((1.0,), list_of(FLOAT))}
        assert bindings_from_wire(bindings_to_wire(bindings)) == bindings

    def test_malformed_wire_value(self):
        with pytest.raises(TransportError):
            value_from_wire({"payload": "x"})

    def test_malformed_wire_document(self):
        with pytest.raises(TransportError):
            bindings_from_wire("{not json")

    @pytest.mark.parametrize("document", ["[]", "null", "1", '"x"'])
    def test_document_that_is_not_an_object(self, document):
        with pytest.raises(TransportError, match="not an object"):
            bindings_from_wire(document)

    @pytest.mark.parametrize("payload", ["abc", {"a": 1, "b": 2}, 7, None])
    def test_list_value_requires_an_array(self, payload):
        wire = {"structural": "List[String]", "payload": payload, "concept": None}
        with pytest.raises(TransportError, match="not an array"):
            value_from_wire(wire)

    def test_list_value_from_an_array(self):
        wire = {"structural": "List[String]", "payload": ["a", "b"], "concept": None}
        assert value_from_wire(wire).payload == ("a", "b")

    @pytest.mark.parametrize("structural", [None, 5, ["String"]])
    def test_structural_that_is_not_a_name(self, structural):
        with pytest.raises(TransportError):
            value_from_wire({"structural": structural, "payload": "x"})


class TestSoap(object):
    def test_round_trip(self, ctx):
        module = _make_module(InterfaceKind.SOAP_SERVICE)
        endpoint = SoapEndpoint(module, ctx)
        outputs = endpoint.call({"x": TypedValue("ab", STRING)})
        assert outputs["out"].payload == "abab"

    def test_envelope_contains_operation(self, ctx):
        module = _make_module(InterfaceKind.SOAP_SERVICE)
        request = SoapEndpoint(module, ctx).build_request(
            {"x": TypedValue("ab", STRING)}
        )
        assert "t.double" in request
        assert "Envelope" in request

    def test_invalid_input_is_client_fault(self, ctx):
        module = _make_module(InterfaceKind.SOAP_SERVICE)
        with pytest.raises(SoapFault) as error:
            SoapEndpoint(module, ctx).call({"x": TypedValue("!bad", STRING)})
        assert error.value.fault_code == "Client"

    def test_unavailable_is_server_fault(self, ctx):
        module = _make_module(InterfaceKind.SOAP_SERVICE)
        module.available = False
        with pytest.raises(SoapFault) as error:
            SoapEndpoint(module, ctx).call({"x": TypedValue("a", STRING)})
        assert error.value.fault_code == "Server"

    def test_malformed_envelope_is_client_fault(self, ctx):
        module = _make_module(InterfaceKind.SOAP_SERVICE)
        with pytest.raises(SoapFault):
            SoapEndpoint(module, ctx).handle("<not-an-envelope")


class TestRest:
    def test_round_trip(self, ctx):
        module = _make_module(InterfaceKind.REST_SERVICE)
        outputs = RestEndpoint(module, ctx).call({"x": TypedValue("ab", STRING)})
        assert outputs["out"].payload == "abab"

    def test_invalid_input_is_400(self, ctx):
        module = _make_module(InterfaceKind.REST_SERVICE)
        with pytest.raises(RestError) as error:
            RestEndpoint(module, ctx).call({"x": TypedValue("!bad", STRING)})
        assert error.value.status == 400

    def test_unavailable_is_503(self, ctx):
        module = _make_module(InterfaceKind.REST_SERVICE)
        module.available = False
        with pytest.raises(RestError) as error:
            RestEndpoint(module, ctx).call({"x": TypedValue("a", STRING)})
        assert error.value.status == 503

    def test_unknown_path_is_404(self, ctx):
        module = _make_module(InterfaceKind.REST_SERVICE)
        status, _body = RestEndpoint(module, ctx).handle("POST", "/nope", "{}")
        assert status == 404

    @pytest.mark.parametrize("body", ["[]", "null", "1"])
    def test_document_that_is_not_an_object_is_400(self, ctx, body):
        module = _make_module(InterfaceKind.REST_SERVICE)
        status, reply = RestEndpoint(module, ctx).handle(
            "POST", "/services/t.double", body
        )
        assert status == 400
        assert "not an object" in reply

    def test_wrong_method_is_405(self, ctx):
        module = _make_module(InterfaceKind.REST_SERVICE)
        status, _body = RestEndpoint(module, ctx).handle(
            "GET", "/services/t.double", "{}"
        )
        assert status == 405


class TestLocalProgram:
    def test_round_trip(self, ctx):
        module = _make_module(InterfaceKind.LOCAL_PROGRAM)
        outputs = LocalProgram(module, ctx).call({"x": TypedValue("ab", STRING)})
        assert outputs["out"].payload == "abab"

    def test_invalid_input_is_exit_2(self, ctx):
        module = _make_module(InterfaceKind.LOCAL_PROGRAM)
        exit_code, _out, err = LocalProgram(module, ctx).run(
            bindings_to_wire({"x": TypedValue("!bad", STRING)})
        )
        assert exit_code == 2
        assert "invalid input" in err

    @pytest.mark.parametrize("stdin", ["[]", "null", "1"])
    def test_stdin_that_is_not_an_object_is_exit_2(self, ctx, stdin):
        module = _make_module(InterfaceKind.LOCAL_PROGRAM)
        exit_code, _out, err = LocalProgram(module, ctx).run(stdin)
        assert exit_code == 2
        assert "bad stdin" in err

    def test_list_stdin_value_that_is_not_an_array_is_exit_2(self, ctx):
        module = _make_module(InterfaceKind.LOCAL_PROGRAM)
        stdin = (
            '{"x": {"concept": null, "payload": "abc", "structural": "List[String]"}}'
        )
        exit_code, _out, err = LocalProgram(module, ctx).run(stdin)
        assert exit_code == 2
        assert "not an array" in err

    def test_unavailable_is_exit_127(self, ctx):
        module = _make_module(InterfaceKind.LOCAL_PROGRAM)
        module.available = False
        exit_code, _out, _err = LocalProgram(module, ctx).run(
            bindings_to_wire({"x": TypedValue("a", STRING)})
        )
        assert exit_code == 127


class TestUniformClient:
    @pytest.mark.parametrize("interface", list(InterfaceKind))
    def test_success_through_every_interface(self, ctx, interface):
        module = _make_module(interface)
        outputs = invoke_via_interface(module, ctx, {"x": TypedValue("ab", STRING)})
        assert outputs["out"].payload == "abab"

    @pytest.mark.parametrize("interface", list(InterfaceKind))
    def test_invalid_input_normalized(self, ctx, interface):
        module = _make_module(interface)
        with pytest.raises(InvalidInputError):
            invoke_via_interface(module, ctx, {"x": TypedValue("!bad", STRING)})

    @pytest.mark.parametrize("interface", list(InterfaceKind))
    def test_unavailable_normalized(self, ctx, interface):
        module = _make_module(interface)
        module.available = False
        with pytest.raises(ModuleUnavailableError):
            invoke_via_interface(module, ctx, {"x": TypedValue("a", STRING)})
