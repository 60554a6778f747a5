"""Structural type lookup by name, the wire decoder's first step.

:func:`repro.values.by_name` answers a registered type, or the list type
over one, from a single table built at import, so decoding a list-typed
wire value hands back one shared ``StructuralType`` instead of building
a new one per value.  Unknown names still raise ``KeyError``, and every
malformed wire value still surfaces as a ``TransportError``.
"""

from __future__ import annotations

import pytest

from repro.modules.errors import TransportError
from repro.modules.interfaces import bindings_from_wire, value_from_wire
from repro.values import FLOAT, STRING, TypedValue, all_types, by_name, list_of


@pytest.mark.parametrize("structural", all_types(), ids=lambda t: t.name)
def test_registered_and_list_types_are_interned(structural):
    assert by_name(structural.name) is structural
    name = f"List[{structural.name}]"
    listed = by_name(name)
    assert listed is by_name(name)
    assert listed == list_of(structural)
    assert listed.name == name and listed.item is structural


def test_list_float_is_one_object():
    assert by_name("List[Float]") is by_name("List[Float]")


def test_nested_list_types_still_resolve():
    nested = by_name("List[List[String]]")
    assert nested == list_of(list_of(STRING))
    assert nested.item is by_name("List[String]")


@pytest.mark.parametrize(
    "name",
    [
        "Nope", "List[Nope]", "List[List[Nope]]", "", "List[]", "List[",
        "List[String", "list[String]", "string", "List[String]]",
        " String", "List[ String]",
    ],
)
def test_unknown_names_raise_key_error(name):
    with pytest.raises(KeyError):
        by_name(name)


def test_decoded_list_values_share_their_type():
    first = value_from_wire({"payload": [1.5], "structural": "List[Float]"})
    second = value_from_wire({"payload": [], "structural": "List[Float]"})
    assert first == TypedValue((1.5,), list_of(FLOAT))
    assert first.structural is second.structural


@pytest.mark.parametrize(
    "data",
    [
        {"payload": [], "structural": "List[Nope]"},
        {"payload": "x", "structural": "Nope"},
        {"payload": "x"},
        {"structural": "String"},
        {"payload": "x", "structural": 5},
        {"payload": "x", "structural": ["String"]},
        {"payload": "x", "structural": None},
        {"payload": "x", "structural": "List[String]"},
        {"payload": {"a": 1}, "structural": "List[Float]"},
        "String",
        ["String"],
        None,
    ],
    ids=repr,
)
def test_malformed_wire_values_raise_transport_error(data):
    with pytest.raises(TransportError, match="malformed wire value"):
        value_from_wire(data)


@pytest.mark.parametrize(
    "document",
    [
        "",
        "not json",
        "[]",
        '"x"',
        '{"x": {"payload": "a", "structural": "List[Nope]"}}',
        '{"x": {"payload": "a", "structural": "List[String]"}}',
        '{"x": 1}',
    ],
)
def test_malformed_wire_documents_raise_transport_error(document):
    with pytest.raises(TransportError):
        bindings_from_wire(document)
