"""Structural types (groundings) of module parameter values.

The paper distinguishes the *structural* type of a parameter, ``str(i)``
(e.g. ``String`` or ``Integer``), from its *semantic* type ``sem(i)`` (an
ontology concept).  This module implements the structural side: a small
lattice of atomic types, text *format* types (FASTA, UniProt flat file,
GenBank, ...) that refine ``String``, and homogeneous list types.

Structural compatibility is what §3.2 of the paper calls groundings being
"compatible with the data structure of the input parameter": a value drawn
from the annotated instance pool may only feed a parameter whose structural
type accepts the value's own structural type.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StructuralType:
    """A structural (grounding) type for parameter values.

    Attributes:
        name: Unique name, e.g. ``"String"`` or ``"FastaFormat"``.
        base: Name of the atomic type this type refines (``"String"`` for
            all text formats, otherwise the type's own name).
        item: For list types, the element type; ``None`` otherwise.
    """

    name: str
    base: str
    item: "StructuralType | None" = None

    @property
    def is_list(self) -> bool:
        return self.item is not None

    @property
    def is_textual(self) -> bool:
        return self.base == "String"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_list:
            return f"List[{self.item}]"
        return self.name


def _atomic(name: str) -> StructuralType:
    return StructuralType(name=name, base=name)


def _format(name: str) -> StructuralType:
    return StructuralType(name=name, base="String")


#: Atomic structural types.
STRING = _atomic("String")
INTEGER = _atomic("Integer")
FLOAT = _atomic("Float")
BOOLEAN = _atomic("Boolean")

#: Text format types.  Each refines ``String`` — a format value *is* a
#: string, but a parameter declared with a specific format only accepts
#: values in that format (or plain strings produced by a generic source).
FASTA = _format("FastaFormat")
UNIPROT_FLAT = _format("UniProtFlatFormat")
EMBL_FLAT = _format("EmblFlatFormat")
GENBANK_FLAT = _format("GenBankFlatFormat")
PDB_TEXT = _format("PdbFormat")
OBO_TEXT = _format("OboFormat")
TABULAR = _format("TabularFormat")
CSV = _format("CsvFormat")
XML = _format("XmlFormat")
JSON_TEXT = _format("JsonFormat")
NEWICK = _format("NewickFormat")
PLAIN_TEXT = _format("PlainTextFormat")
HTML = _format("HtmlFormat")
KEGG_FLAT = _format("KeggFlatFormat")

_REGISTRY: dict[str, StructuralType] = {
    t.name: t
    for t in (
        STRING,
        INTEGER,
        FLOAT,
        BOOLEAN,
        FASTA,
        UNIPROT_FLAT,
        EMBL_FLAT,
        GENBANK_FLAT,
        PDB_TEXT,
        OBO_TEXT,
        TABULAR,
        CSV,
        XML,
        JSON_TEXT,
        NEWICK,
        PLAIN_TEXT,
        HTML,
        KEGG_FLAT,
    )
}


def list_of(item: StructuralType) -> StructuralType:
    """Return the homogeneous list type over ``item``."""
    return StructuralType(name=f"List[{item.name}]", base="List", item=item)


#: Every registered type and the list type over each, by name: one
#: lookup for what the wire decoder meets, one object per list type.
_BY_NAME: dict[str, StructuralType] = {
    **_REGISTRY,
    **{f"List[{t.name}]": list_of(t) for t in _REGISTRY.values()},
}


def by_name(name: str) -> StructuralType:
    """Look up a structural type by name: a registered type or a
    (possibly nested) list type over one.

    Raises:
        KeyError: If ``name`` does not denote a registered type.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        if not (name.startswith("List[") and name.endswith("]")):
            raise
    return list_of(by_name(name[5:-1]))


def all_types() -> tuple[StructuralType, ...]:
    """All registered non-list structural types."""
    return tuple(_REGISTRY.values())


def compatible(provided: StructuralType, required: StructuralType) -> bool:
    """True when a ``provided`` value can feed a ``required`` parameter.

    Rules (checked in order):

    * identical types are compatible;
    * a parameter requiring plain ``String`` accepts any textual format;
    * list types are compatible when their element types are;
    * everything else is incompatible (a FASTA parameter does not accept a
      GenBank record, an Integer does not accept a Float, ...).
    """
    if provided is required or provided == required:
        return True
    if required == STRING and provided.is_textual:
        return True
    if provided.is_list and required.is_list:
        return compatible(provided.item, required.item)
    return False
