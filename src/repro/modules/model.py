"""The scientific module model.

Following §2, a module ``m = <id, name>`` has ordered input and output
parameters, each characterized by a structural type ``str(i)`` and a
semantic type ``sem(i)`` (an ontology concept).  Our modules are in
addition *executable*: they carry a :class:`~repro.modules.behavior.BehaviorSpec`
and run against a :class:`ModuleContext` (the biological universe plus the
annotation ontology).

The generation heuristic treats modules as black boxes: it reads only the
parameter annotations and calls :meth:`Module.invoke`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.biodb.universe import BioUniverse
from repro.modules.behavior import BehaviorSpec
from repro.modules.errors import (
    MissingParameterError,
    ModuleUnavailableError,
    StructuralMismatchError,
)
from repro.ontology.model import Ontology
from repro.values import StructuralType, TypedValue


#: A binding absent from the map (``None`` is a bound optional input).
_UNBOUND = object()


class Category(enum.Enum):
    """The five kinds of data manipulation of Table 3."""

    FORMAT_TRANSFORMATION = "format transformation"
    DATA_RETRIEVAL = "data retrieval"
    MAPPING_IDENTIFIERS = "mapping identifiers"
    FILTERING = "filtering"
    DATA_ANALYSIS = "data analysis"


class InterfaceKind(enum.Enum):
    """How the module is supplied (§4.1): local program, REST or SOAP."""

    LOCAL_PROGRAM = "local program"
    REST_SERVICE = "rest service"
    SOAP_SERVICE = "soap web service"


@dataclass(frozen=True)
class Parameter:
    """A module input or output parameter.

    Attributes:
        name: Parameter name, unique within the module side it belongs to.
        structural: ``str(i)`` — the structural type.
        concept: ``sem(i)`` — the annotating ontology concept name.
        optional: True for optional inputs (may be bound to ``None`` /
            omitted, §2).
    """

    name: str
    structural: StructuralType
    concept: str
    optional: bool = False


@dataclass
class ModuleContext:
    """Execution context shared by all modules: the data universe and the
    domain ontology."""

    universe: BioUniverse
    ontology: Ontology


@dataclass
class Module:
    """An executable scientific module.

    Attributes:
        module_id: Stable unique identifier.
        name: Human-facing name (often vague in the wild, §1).
        category: Table 3 category.
        interface: Supply form (local / REST / SOAP).
        provider: Name of the (synthetic) third-party provider; decay is
            modelled by providers shutting down.
        inputs: Ordered input parameters.
        outputs: Ordered output parameters.
        behavior: Executable ground-truth behavior spec.
        available: False once the provider stopped supplying the module.
        popularity: Relative weight with which workflow generators pick
            this module (popular KEGG-style utilities appear in many
            workflows, §6).
        legible: Whether examining data examples reveals the module's
            behavior to a competent human user (drives the §5 study; the
            paper found filtering/complex-analysis modules illegible).

    ``behavior`` and ``legible`` are ground truth.  The module runs its
    ``behavior``; the evaluator (:mod:`repro.core.metrics`) and the
    simulated §5 users read them.  Generation, matching, repair and
    enactment do not: they know a module as the paper does, through its
    annotations and the data examples it produces.  Which concepts an
    output carries, for instance, is read off those examples.
    """

    module_id: str
    name: str
    category: Category
    interface: InterfaceKind
    provider: str
    inputs: tuple[Parameter, ...]
    outputs: tuple[Parameter, ...]
    behavior: BehaviorSpec
    available: bool = True
    popularity: int = 1
    legible: bool = True

    def __post_init__(self) -> None:
        input_names = [p.name for p in self.inputs]
        output_names = [p.name for p in self.outputs]
        if len(set(input_names)) != len(input_names):
            raise ValueError(f"duplicate input names in {self.module_id}")
        if len(set(output_names)) != len(output_names):
            raise ValueError(f"duplicate output names in {self.module_id}")

    # ------------------------------------------------------------------
    def input(self, name: str) -> Parameter:
        """The input parameter called ``name``."""
        for parameter in self.inputs:
            if parameter.name == name:
                return parameter
        raise KeyError(f"{self.module_id} has no input {name!r}")

    def output(self, name: str) -> Parameter:
        """The output parameter called ``name``."""
        for parameter in self.outputs:
            if parameter.name == name:
                return parameter
        raise KeyError(f"{self.module_id} has no output {name!r}")

    @property
    def signature(self) -> tuple[tuple[tuple[str, str], ...], tuple[tuple[str, str], ...]]:
        """(inputs, outputs) as ((structural, concept), ...) pairs — the
        shape used for parameter-mapping compatibility in §6."""
        return (
            tuple((p.structural.name, p.concept) for p in self.inputs),
            tuple((p.structural.name, p.concept) for p in self.outputs),
        )

    # ------------------------------------------------------------------
    def validate_bindings(self, bindings: dict[str, TypedValue]) -> None:
        """Check mandatory parameters are bound with compatible structure.

        Raises:
            MissingParameterError: A mandatory input is unbound.
            StructuralMismatchError: A value's structure is incompatible.
        """
        known = 0  # bound names that are inputs (input names are unique)
        for parameter in self.inputs:
            value = bindings.get(parameter.name, _UNBOUND)
            if value is not _UNBOUND:
                known += 1
            if value is None or value is _UNBOUND:
                if not parameter.optional:
                    raise MissingParameterError(
                        f"{self.module_id}: input {parameter.name!r} is mandatory"
                    )
                continue
            if not value.feeds(parameter.structural):
                raise StructuralMismatchError(
                    f"{self.module_id}: input {parameter.name!r} requires "
                    f"{parameter.structural}, got {value.structural}"
                )
        if known != len(bindings):
            unknown = set(bindings) - {p.name for p in self.inputs}
            raise StructuralMismatchError(
                f"{self.module_id}: unknown inputs {sorted(unknown)}"
            )

    def invoke(
        self, ctx: ModuleContext, bindings: dict[str, TypedValue]
    ) -> dict[str, TypedValue]:
        """Execute the module on ``bindings``; returns output bindings.

        Raises:
            ModuleUnavailableError: The provider withdrew the module.
            InvalidInputError: Abnormal termination (§3.2) — no data
                example is constructed for this combination.
        """
        if not self.available:
            raise ModuleUnavailableError(
                f"{self.module_id} is no longer supplied by {self.provider}"
            )
        self.validate_bindings(bindings)
        _label, outputs = self.behavior.execute(ctx, bindings)
        return outputs

    def classify(
        self, ctx: ModuleContext, bindings: dict[str, TypedValue]
    ) -> str | None:
        """Ground-truth behavior class of ``bindings`` (evaluator only)."""
        try:
            self.validate_bindings(bindings)
        except StructuralMismatchError:
            return None
        return self.behavior.classify(ctx, bindings)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Module({self.module_id!r}, {self.category.value!r})"
