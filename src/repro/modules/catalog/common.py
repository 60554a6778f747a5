"""Shared builders for the module catalog.

Each family file declares its modules as :class:`ModuleRow` rows and
assembles them with :func:`assemble`, which assigns supply interfaces to
match the paper's 56 local / 60 REST / 136 SOAP mix (rows may pin an
interface — e.g. the KEGG REST services that later serve as equivalents
for decayed SOAP twins).

The guard/transform helpers here inspect *values only* (never parameter
annotations): catalog modules are genuine black boxes that behave like
their real-world counterparts — rejecting malformed accessions, unknown
entities and unsupported input kinds with abnormal termination.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.biodb.accessions import scheme_for
from repro.biodb.sequences import classify_sequence
from repro.biodb.universe import UnknownAccessionError
from repro.modules.behavior import BehaviorSpec, Branch
from repro.modules.errors import InvalidInputError
from repro.modules.model import Category, InterfaceKind, Module, ModuleContext, Parameter
from repro.values import TypedValue


@dataclass
class ModuleRow:
    """Declarative description of one catalog module."""

    module_id: str
    name: str
    inputs: tuple[Parameter, ...]
    outputs: tuple[Parameter, ...]
    branches: tuple[Branch, ...]
    provider: str
    interface: InterfaceKind | None = None
    popularity: int = 1
    legible: bool = True


def assemble(
    rows: "list[ModuleRow]",
    category: Category,
    n_soap: int,
    n_rest: int,
    n_local: int,
) -> list[Module]:
    """Build modules from rows, filling the family's interface quotas.

    Pinned interfaces are honoured and counted against their quota;
    remaining rows are filled SOAP-first, then REST, then local, in row
    order.

    Raises:
        ValueError: If the quotas do not fit the rows.
    """
    if n_soap + n_rest + n_local != len(rows):
        raise ValueError(
            f"{category.value}: quotas {n_soap}+{n_rest}+{n_local} != {len(rows)} rows"
        )
    remaining = {
        InterfaceKind.SOAP_SERVICE: n_soap,
        InterfaceKind.REST_SERVICE: n_rest,
        InterfaceKind.LOCAL_PROGRAM: n_local,
    }
    for row in rows:
        if row.interface is not None:
            if remaining[row.interface] <= 0:
                raise ValueError(
                    f"{row.module_id}: pinned {row.interface.value} exceeds quota"
                )
            remaining[row.interface] -= 1
    modules = []
    fill_order = (
        InterfaceKind.SOAP_SERVICE,
        InterfaceKind.REST_SERVICE,
        InterfaceKind.LOCAL_PROGRAM,
    )
    for row in rows:
        interface = row.interface
        if interface is None:
            interface = next(kind for kind in fill_order if remaining[kind] > 0)
            remaining[interface] -= 1
        modules.append(
            Module(
                module_id=row.module_id,
                name=row.name,
                category=category,
                interface=interface,
                provider=row.provider,
                inputs=row.inputs,
                outputs=row.outputs,
                behavior=BehaviorSpec(row.branches),
                popularity=row.popularity,
                legible=row.legible,
            )
        )
    return modules


# ----------------------------------------------------------------------
# Guard helpers (value-level only)
# ----------------------------------------------------------------------
def valid_accession(parameter: str, concept: str):
    """Guard: the value of ``parameter`` is well-formed under the scheme of
    ``concept``."""
    scheme = scheme_for(concept)

    def guard(_ctx: ModuleContext, inputs: dict[str, TypedValue]) -> bool:
        value = inputs.get(parameter)
        return value is not None and isinstance(value.payload, str) and scheme.is_valid(
            value.payload
        )

    return guard


def sequence_kind(parameter: str, kinds: "tuple[str, ...]"):
    """Guard: the sequence value classifies into one of ``kinds``."""

    def guard(_ctx: ModuleContext, inputs: dict[str, TypedValue]) -> bool:
        value = inputs.get(parameter)
        if value is None or not isinstance(value.payload, str):
            return False
        try:
            return classify_sequence(value.payload) in kinds
        except ValueError:
            return False

    return guard


def list_items_kind(parameter: str, kinds: "tuple[str, ...]"):
    """Guard: non-empty list whose first item classifies into ``kinds``."""

    def guard(_ctx: ModuleContext, inputs: dict[str, TypedValue]) -> bool:
        value = inputs.get(parameter)
        if value is None or not isinstance(value.payload, tuple) or not value.payload:
            return False
        try:
            return classify_sequence(value.payload[0]) in kinds
        except (ValueError, TypeError):
            return False

    return guard


def empty_list(parameter: str):
    """Guard: the list value of ``parameter`` is empty (a hidden behavior
    class the one-instance-per-partition heuristic never samples)."""

    def guard(_ctx: ModuleContext, inputs: dict[str, TypedValue]) -> bool:
        value = inputs.get(parameter)
        return value is not None and isinstance(value.payload, tuple) and not value.payload

    return guard


def text_startswith(parameter: str, prefix: str):
    """Guard: the text value starts with a format marker."""

    def guard(_ctx: ModuleContext, inputs: dict[str, TypedValue]) -> bool:
        value = inputs.get(parameter)
        return (
            value is not None
            and isinstance(value.payload, str)
            and value.payload.startswith(prefix)
        )

    return guard


def any_of(*guards):
    """Disjunction of guards."""

    def guard(ctx: ModuleContext, inputs: dict[str, TypedValue]) -> bool:
        return any(g(ctx, inputs) for g in guards)

    return guard


def payload_predicate(parameter: str, predicate):
    """Guard: ``predicate(payload)`` holds (predicate must be total)."""

    def guard(_ctx: ModuleContext, inputs: dict[str, TypedValue]) -> bool:
        value = inputs.get(parameter)
        if value is None:
            return False
        try:
            return bool(predicate(value.payload))
        except (TypeError, ValueError):
            return False

    return guard


# ----------------------------------------------------------------------
# Transform helpers
# ----------------------------------------------------------------------
def resolve_or_invalid(ctx: ModuleContext, concept: str, accession: str):
    """Resolve an accession, converting lookup misses into abnormal
    termination."""
    try:
        return ctx.universe.resolve(concept, accession)
    except (UnknownAccessionError, KeyError) as exc:
        raise InvalidInputError(f"unknown {concept}: {accession!r}") from exc


def classify_or_invalid(sequence: str) -> str:
    """Classify a sequence, converting failures into abnormal termination."""
    try:
        return classify_sequence(sequence)
    except ValueError as exc:
        raise InvalidInputError(str(exc)) from exc
