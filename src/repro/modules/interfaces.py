"""Simulated module supply interfaces: local programs, REST, SOAP.

The paper's 252 modules were supplied as Java/Python programs (56), REST
services (60) and SOAP web services (136).  We simulate the three supply
forms faithfully enough to exercise the code paths the heuristic depends
on: values are serialized onto a wire format, envelopes are printed and
parsed, and failures surface as transport-level faults (SOAP ``Client``
faults, HTTP 4xx/5xx, non-zero exit codes) that the client stub then
normalizes back into :class:`InvalidInputError` / :class:`ModuleUnavailableError`.
"""

from __future__ import annotations

import json
from xml.etree import ElementTree
from xml.parsers import expat

from repro.modules.errors import (
    InvalidInputError,
    ModuleUnavailableError,
    RestError,
    SoapFault,
    TransportError,
)
from repro.modules.model import InterfaceKind, Module, ModuleContext
from repro.values import TypedValue, bindings_wire_json, by_name


# ----------------------------------------------------------------------
# Wire (de)serialization
# ----------------------------------------------------------------------
def value_to_wire(value: TypedValue) -> dict:
    """Serialize a typed value to its JSON-compatible wire form (whose
    JSON text :func:`repro.values.canonical.value_wire_json` prints)."""
    payload = list(value.payload) if value.structural.is_list else value.payload
    return {
        "payload": payload,
        "structural": value.structural.name,
        "concept": value.concept,
    }


def value_from_wire(data: dict) -> TypedValue:
    """Deserialize the wire form back into a typed value.

    Raises:
        TransportError: When the wire form is malformed — including a
            list-typed value whose payload is not a JSON array.
    """
    try:
        structural = by_name(data["structural"])
        payload = data["payload"]
        if structural.is_list:
            if not isinstance(payload, list):
                raise TransportError(
                    f"malformed wire value: {structural.name} payload is "
                    f"{type(payload).__name__}, not an array"
                )
            payload = tuple(payload)
        return TypedValue(payload, structural, data.get("concept"))
    except (KeyError, TypeError, AttributeError) as exc:
        raise TransportError(f"malformed wire value: {exc}") from exc


def bindings_to_wire(bindings: dict[str, TypedValue]) -> str:
    """Serialize a full binding map to a JSON document: the wire encoder
    :func:`repro.values.canonical.bindings_wire_json`, byte-identical to
    ``json.dumps({name: value_to_wire(v)}, sort_keys=True)``."""
    return bindings_wire_json(bindings)


#: The C scanner ``json.loads`` ends in, called without the two regex
#: whitespace scans around it: a wire document is printed without
#: padding.  Anything it does not consume whole goes to ``json.loads``.
_scan_once = json.JSONDecoder().scan_once


def bindings_from_wire(document: str) -> dict[str, TypedValue]:
    """Parse a JSON binding document back into typed values.

    Equal to decoding with ``json.loads``: a document the scanner does
    not consume whole (padding, BOM, trailing data, bytes, malformed
    JSON) is decoded by ``json.loads`` itself, so its result or its
    error text is the same.

    Raises:
        TransportError: When the document is not JSON, is not a JSON
            object, or holds a malformed value.
    """
    try:
        data, end = _scan_once(document, 0)
    except (StopIteration, ValueError, TypeError):
        end = -1
    if end != len(document):
        try:
            data = json.loads(document)
        except json.JSONDecodeError as exc:
            raise TransportError(f"malformed wire document: {exc}") from exc
    if not isinstance(data, dict):
        raise TransportError(
            f"malformed wire document: {type(data).__name__}, not an object"
        )
    return {name: value_from_wire(entry) for name, entry in data.items()}


# ----------------------------------------------------------------------
# Endpoints
# ----------------------------------------------------------------------
ENVELOPE_NS = "http://schemas.xmlsoap.org/soap/envelope/"
_ENVELOPE_OPEN = f'<ns0:Envelope xmlns:ns0="{ENVELOPE_NS}"><ns0:Body>'
_ENVELOPE_CLOSE = "</ns0:Body></ns0:Envelope>"


def soap_envelope(tag: str, text: str) -> str:
    """The SOAP envelope whose body holds one ``tag`` element of ``text``.

    Byte-identical to ``ElementTree.tostring(envelope, encoding="unicode")``
    of the ``Envelope/Body/tag`` tree: ElementTree names the envelope
    namespace ``ns0`` and escapes ``&``, ``<`` and ``>`` in character data.
    ``text`` is a wire document, so never empty (ElementTree would print
    an empty element as ``<tag />``).
    """
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f"{_ENVELOPE_OPEN}<{tag}>{text}</{tag}>{_ENVELOPE_CLOSE}"


#: ``{ns}Body`` as expat names it when namespaces are split on ``}``.
_EXPAT_BODY = f"{ENVELOPE_NS}}}Body"


class _Doctype(Exception):
    """A document type declaration: ElementTree's parser treats some
    entity references under one differently from plain expat."""


class _OperationScan:
    """The handlers of one expat pass in :func:`soap_operation`, and
    their state."""

    __slots__ = ("depth", "in_body", "tag", "text", "collecting")

    def __init__(self) -> None:
        self.depth = 0
        self.in_body = False
        self.tag: "str | None" = None
        self.text: "list[str]" = []
        self.collecting = False

    def start(self, name: str, attributes) -> None:
        self.collecting = False  # a child ends its parent's text
        depth = self.depth = self.depth + 1
        if depth == 2:
            self.in_body = name == _EXPAT_BODY
        elif depth == 3 and self.in_body and self.tag is None:
            self.tag = "{" + name if "}" in name else name
            self.collecting = True

    def end(self, name: str) -> None:
        self.collecting = False
        self.depth -= 1

    def data(self, text: str) -> None:
        if self.collecting:
            self.text.append(text)

    @staticmethod
    def doctype(*args) -> None:
        raise _Doctype


def _reference_operation(document: str) -> "tuple[str, str | None] | None":
    """:func:`soap_operation` by ElementTree: a tree, then a path query."""
    operation = ElementTree.fromstring(document).find(f"{{{ENVELOPE_NS}}}Body/")
    return None if operation is None else (operation.tag, operation.text)


def soap_operation(document: str) -> "tuple[str, str | None] | None":
    """The tag and text of the operation a SOAP envelope carries.

    One expat pass, equal to ``ElementTree.fromstring(document)
    .find("{ns}Body/")``: the first child element of the first
    root-level ``Body`` that has one (the root's own tag is not
    checked), its tag in ElementTree's ``{ns}local`` form and its text
    the character data before its first child, or ``None`` when there
    is none.  Returns ``None`` when no ``Body`` has a child.  A document
    the pass rejects — malformed, or carrying a document type
    declaration — is parsed by ElementTree, so its result or its
    ``ParseError`` text is ElementTree's own.

    Raises:
        ElementTree.ParseError: The document is not well-formed XML.
    """
    scan = _OperationScan()
    parser = expat.ParserCreate(None, "}")
    parser.buffer_text = True
    parser.StartElementHandler = scan.start
    parser.EndElementHandler = scan.end
    parser.CharacterDataHandler = scan.data
    parser.StartDoctypeDeclHandler = scan.doctype
    try:
        parser.Parse(document, True)
    except (expat.ExpatError, _Doctype):
        return _reference_operation(document)
    if scan.tag is None:
        return None
    return scan.tag, "".join(scan.text) if scan.text else None


class SoapEndpoint:
    """A simulated SOAP service hosting one module operation.

    Envelopes are printed by :func:`soap_envelope` and parsed by a real
    XML parser (expat, in one pass: :func:`soap_operation`) on both
    sides.
    """

    def __init__(self, module: Module, ctx: ModuleContext) -> None:
        self.module = module
        self.ctx = ctx

    def build_request(self, bindings: dict[str, TypedValue]) -> str:
        """Build the SOAP request envelope for an invocation."""
        return soap_envelope(self.module.module_id, bindings_to_wire(bindings))

    def handle(self, request: str) -> str:
        """Serve a request envelope; returns a response envelope.

        Raises:
            SoapFault: ``Client`` faults for invalid input, ``Server``
                faults for unavailable modules.
        """
        try:
            operation = soap_operation(request)
        except ElementTree.ParseError as exc:
            raise SoapFault("Client", f"malformed envelope: {exc}") from exc
        if operation is None or operation[0] != self.module.module_id:
            raise SoapFault("Client", "unknown operation")
        bindings = bindings_from_wire(operation[1] or "{}")
        try:
            outputs = self.module.invoke(self.ctx, bindings)
        except ModuleUnavailableError as exc:
            raise SoapFault("Server", str(exc)) from exc
        except InvalidInputError as exc:
            raise SoapFault("Client", str(exc)) from exc
        return soap_envelope(
            f"{self.module.module_id}Response", bindings_to_wire(outputs)
        )

    def call(self, bindings: dict[str, TypedValue]) -> dict[str, TypedValue]:
        """Client stub: request/response round trip through the envelope."""
        result = soap_operation(self.handle(self.build_request(bindings)))
        if result is None:
            raise SoapFault("Server", "empty response body")
        return bindings_from_wire(result[1] or "{}")


class RestEndpoint:
    """A simulated REST resource hosting one module operation."""

    def __init__(self, module: Module, ctx: ModuleContext) -> None:
        self.module = module
        self.ctx = ctx

    def handle(self, method: str, path: str, body: str) -> tuple[int, str]:
        """Serve an HTTP-like request; returns ``(status, body)``."""
        if method != "POST":
            return 405, json.dumps({"error": "method not allowed"})
        if path != f"/services/{self.module.module_id}":
            return 404, json.dumps({"error": "no such resource"})
        try:
            bindings = bindings_from_wire(body)
            outputs = self.module.invoke(self.ctx, bindings)
        except ModuleUnavailableError as exc:
            return 503, json.dumps({"error": str(exc)})
        except InvalidInputError as exc:
            return 400, json.dumps({"error": str(exc)})
        except TransportError as exc:
            return 400, json.dumps({"error": str(exc)})
        return 200, bindings_to_wire(outputs)

    def call(self, bindings: dict[str, TypedValue]) -> dict[str, TypedValue]:
        """Client stub: POST the bindings, parse the JSON response.

        Raises:
            RestError: For any non-200 status.
        """
        status, body = self.handle(
            "POST", f"/services/{self.module.module_id}", bindings_to_wire(bindings)
        )
        if status != 200:
            reason = json.loads(body).get("error", "unknown error")
            raise RestError(status, reason)
        return bindings_from_wire(body)


class LocalProgram:
    """A simulated command-line program wrapping one module."""

    def __init__(self, module: Module, ctx: ModuleContext) -> None:
        self.module = module
        self.ctx = ctx

    def run(self, stdin: str) -> tuple[int, str, str]:
        """Run the program on a JSON stdin; returns (exit, stdout, stderr)."""
        try:
            bindings = bindings_from_wire(stdin)
            outputs = self.module.invoke(self.ctx, bindings)
        except ModuleUnavailableError as exc:
            return 127, "", f"{self.module.module_id}: not found: {exc}"
        except InvalidInputError as exc:
            return 2, "", f"{self.module.module_id}: invalid input: {exc}"
        except TransportError as exc:
            return 2, "", f"{self.module.module_id}: bad stdin: {exc}"
        return 0, bindings_to_wire(outputs), ""

    def call(self, bindings: dict[str, TypedValue]) -> dict[str, TypedValue]:
        """Client stub: run the program and parse stdout.

        Raises:
            InvalidInputError: Exit code 2 (bad input).
            ModuleUnavailableError: Exit code 127 (program gone).
        """
        exit_code, stdout, stderr = self.run(bindings_to_wire(bindings))
        if exit_code == 127:
            raise ModuleUnavailableError(stderr)
        if exit_code != 0:
            raise InvalidInputError(stderr)
        return bindings_from_wire(stdout)


# ----------------------------------------------------------------------
# Uniform client
# ----------------------------------------------------------------------
def invoke_via_interface(
    module: Module, ctx: ModuleContext, bindings: dict[str, TypedValue]
) -> dict[str, TypedValue]:
    """Invoke ``module`` through its declared supply interface, normalizing
    transport faults back into the module error hierarchy.

    This is the innermost call of every module invocation in the system:
    :class:`repro.engine.invoker.DirectInvoker` is its one caller, at the
    bottom of every :class:`~repro.engine.invoker.InvocationEngine`
    stack.  Values really are serialized onto the wire and back.

    Raises:
        InvalidInputError: Abnormal termination (client fault / 4xx / exit 2).
        ModuleUnavailableError: Provider gone (server fault / 503 / exit 127).
    """
    if module.interface is InterfaceKind.SOAP_SERVICE:
        try:
            return SoapEndpoint(module, ctx).call(bindings)
        except SoapFault as fault:
            if fault.fault_code == "Client":
                raise InvalidInputError(fault.fault_string) from fault
            raise ModuleUnavailableError(fault.fault_string) from fault
    if module.interface is InterfaceKind.REST_SERVICE:
        try:
            return RestEndpoint(module, ctx).call(bindings)
        except RestError as error:
            if 400 <= error.status < 500:
                raise InvalidInputError(error.reason) from error
            raise ModuleUnavailableError(error.reason) from error
    return LocalProgram(module, ctx).call(bindings)
