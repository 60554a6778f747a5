"""The canonical encoding of typed values: one definition of value identity.

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


def bindings_json(bindings) -> str:
    """The canonical JSON document of a ``name -> TypedValue`` binding map:
    names in sorted order, each value as its concept, payload and
    structural type name — insertion order erased."""
    parts = []
    for name in sorted(bindings):
        value = bindings[name]
        concept = value.concept
        payload = value.payload
        # payload_json's text fast path, inlined: this runs once per
        # binding of every engine call, and the call is a quarter of it.
        parts.append(
            f'{_quote(name)}: {{"concept": '
            f'{"null" if concept is None else _quote(concept)}, "payload": '
            f"{_quote(payload) if type(payload) is str else payload_json(payload)}, "
            f'"structural": {_quote(value.structural.name)}}}'
        )
    return "{" + ", ".join(parts) + "}"


def sorted_payloads_json(payloads) -> str:
    """The JSON array of the payloads' canonical texts, sorted: the
    order- and name-free form one side of a data example is hashed from."""
    return "[" + ", ".join(map(_quote, sorted(map(payload_json, payloads)))) + "]"
