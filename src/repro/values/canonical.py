"""The canonical encoding of typed values: one encoder for every document.

Three consumers decide whether two values are "the same" by comparing
strings built here:

* the invocation cache keys an invocation on
  ``(module_id, bindings_json(bindings))``
  (:func:`repro.engine.cache.canonical_key`);
* §6 behavior and input tokens hash :func:`sorted_payloads_json` of an
  example's input and output payloads (:mod:`repro.match.signature`);
* drift detection compares baseline and regenerated examples by
  :func:`payload_json` (:mod:`repro.obs.drift`).

The form is the JSON document ``json.dumps(..., sort_keys=True)`` would
print for the normalized payload (NaN replaced by a tagged, self-equal
token; tuples rendered as arrays).  Every string is assembled from the
C escaper behind ``json.dumps`` — text payloads, concepts, structural
names and parameter names go straight through it, and any other payload
through one shared ``JSONEncoder`` — so the output is byte-identical to
the ``json.dumps`` formula without building an encoder or nested dicts
per call.  Journaled index builds store tokens hashed from these bytes,
so any change to them is a change of identity, not of speed.

Two more consumers print documents rather than compare them, from the
same per-value formatter with a different payload encoder — the wire
form, which keeps a NaN payload as JSON's non-standard ``NaN`` token:

* the simulated wire sends :func:`bindings_wire_json` as every SOAP
  body, REST body and local program's stdin/stdout
  (:func:`repro.modules.interfaces.bindings_to_wire`), byte-identical to
  ``json.dumps({name: value_to_wire(value)}, sort_keys=True)``; fault
  plans and conformance probes hash those bytes;
* the campaign journal stores each report as the row
  :func:`repro.campaign.journal.report_json` prints from
  :func:`value_wire_json`, byte-identical to
  ``json.dumps(report_to_dict(report), sort_keys=True)``; campaign
  digests hash those rows.

The module is stateless: nothing is memoized between calls.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote

#: ``json.dumps(value, sort_keys=True)`` without building an encoder per
#: call (same output; the encoder holds no per-call state).
_sorted_json = json.JSONEncoder(sort_keys=True).encode


def _normalize(payload):
    """Normalize a payload for encoding.

    ``json.dumps`` would emit the non-standard ``NaN`` token for a NaN
    float — and NaN's ``x != x`` semantics make it a hazard anywhere a
    payload is compared rather than serialized — so NaN is replaced by a
    tagged, self-equal token.  Tuples are normalized recursively (JSON
    renders them as arrays anyway).
    """
    if isinstance(payload, float) and math.isnan(payload):
        return {"__float__": "nan"}
    if isinstance(payload, (tuple, list)):
        return [_normalize(item) for item in payload]
    return payload


def payload_json(payload) -> str:
    """The canonical JSON text of one value payload.

    Raises:
        TypeError: The payload (or a part of it) is not JSON-encodable.
    """
    if type(payload) is str:
        return _quote(payload)
    return _sorted_json(_normalize(payload))


def _value_document(value, payload_text) -> str:
    """One typed value as ``{"concept": …, "payload": …, "structural": …}``,
    its non-text payload printed by ``payload_text``: the one per-value
    formatter behind both the canonical and the wire documents."""
    concept = value.concept
    payload = value.payload
    # The text fast path is inlined: this runs once per binding of every
    # engine call and every wire document.
    return (
        f'{{"concept": {"null" if concept is None else _quote(concept)}, "payload": '
        f"{_quote(payload) if type(payload) is str else payload_text(payload)}, "
        f'"structural": {_quote(value.structural.name)}}}'
    )


def _bindings_document(bindings, payload_text) -> str:
    if len(bindings) == 1:
        # Most signatures bind one parameter: nothing to sort or join.
        [(name, value)] = bindings.items()
        return f"{{{_quote(name)}: {_value_document(value, payload_text)}}}"
    return (
        "{"
        + ", ".join(
            [
                f"{_quote(name)}: {_value_document(bindings[name], payload_text)}"
                for name in sorted(bindings)
            ]
        )
        + "}"
    )


def bindings_json(bindings) -> str:
    """The canonical JSON document of a ``name -> TypedValue`` binding map:
    names in sorted order, each value as its concept, payload and
    structural type name — insertion order erased."""
    return _bindings_document(bindings, payload_json)


def value_wire_json(value) -> str:
    """The wire JSON text of one typed value: ``json.dumps(value_to_wire(
    value), sort_keys=True)`` — the canonical form, except that a NaN
    payload prints as ``NaN``.

    Raises:
        TypeError: The payload (or a part of it) is not JSON-encodable.
    """
    return _value_document(value, _sorted_json)


def bindings_wire_json(bindings) -> str:
    """The wire JSON document of a ``name -> TypedValue`` binding map:
    :func:`bindings_json`'s layout with :func:`value_wire_json`'s
    payloads."""
    return _bindings_document(bindings, _sorted_json)


def sorted_payloads_json(payloads) -> str:
    """The JSON array of the payloads' canonical texts, sorted: the
    order- and name-free form one side of a data example is hashed from."""
    return "[" + ", ".join(map(_quote, sorted(map(payload_json, payloads)))) + "]"
