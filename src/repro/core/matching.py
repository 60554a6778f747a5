"""Matching scientific modules by their data examples (§6).

Given an unavailable module's data examples (harvested from provenance)
and a candidate available module, the matcher:

1. builds a 1-to-1 *parameter mapping* between the two signatures —
   exact (same semantic domain and structure) or *relaxed* (the candidate
   parameter's domain strictly subsumes the unavailable one's, the
   Figure 7 ``GetBiologicalSequence`` case);
2. invokes the candidate on the unavailable module's example inputs (so
   both modules' data examples share the same input values);
3. compares output values and classifies the behavior relationship:

   * **equivalent** — every mapped example has the same outputs under an
     exact mapping ("eventually equivalent": the heuristic may still miss
     corner cases, §6);
   * **overlapping** — some but not all examples agree, or all agree but
     the mapping is relaxed (agreement is then only established on the
     unavailable module's sub-domain);
   * **disjoint** — no example agrees.

Candidates whose signature admits no mapping are *incomparable*.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.examples import DataExample
from repro.engine.invoker import DirectInvoker, Invoker
from repro.modules.errors import ModuleInvocationError
from repro.modules.model import Module, ModuleContext
from repro.ontology.model import Ontology
from repro.values import compatible


class MatchKind(enum.Enum):
    EQUIVALENT = "equivalent"
    OVERLAPPING = "overlapping"
    DISJOINT = "disjoint"


@dataclass(frozen=True)
class ParameterMapping:
    """A 1-to-1 mapping between two module signatures.

    Attributes:
        inputs: unavailable input name -> candidate input name.
        outputs: unavailable output name -> candidate output name.
        relaxed: True when any mapped pair uses strict subsumption rather
            than concept equality.
    """

    inputs: dict[str, str]
    outputs: dict[str, str]
    relaxed: bool


@dataclass
class MatchReport:
    """Outcome of comparing one candidate against one unavailable module.

    Attributes:
        unavailable_id / candidate_id: The two modules.
        kind: The behavior relationship.
        mapping: The parameter mapping used.
        n_examples: Examples compared.
        n_agreeing: Examples with identical outputs.
        agreement_domain: Per unavailable input name, the set of value
            concepts (partitions) on which outputs agreed — the §6
            sub-domain used for context-safe overlapping substitution.
    """

    unavailable_id: str
    candidate_id: str
    kind: MatchKind
    mapping: ParameterMapping
    n_examples: int
    n_agreeing: int
    agreement_domain: dict[str, set[str]] = field(default_factory=dict)


def map_parameters(
    ontology: Ontology, unavailable: Module, candidate: Module
) -> ParameterMapping | None:
    """Build the §6 parameter mapping, or ``None`` when incompatible.

    Inputs map when the candidate input accepts the unavailable input's
    values: compatible structure and candidate concept equal to or
    subsuming the unavailable concept.  Outputs map symmetrically
    (candidate output concept equal to or subsuming the unavailable
    one's, compatible structure).
    """
    if len(unavailable.inputs) != len(candidate.inputs):
        return None
    if len(unavailable.outputs) != len(candidate.outputs):
        return None
    relaxed = False
    input_map: dict[str, str] = {}
    used: set[str] = set()
    for parameter in unavailable.inputs:
        match = None
        for other in candidate.inputs:
            if other.name in used:
                continue
            if not compatible(parameter.structural, other.structural):
                continue
            if parameter.concept == other.concept:
                match = (other.name, False)
                break
            if ontology.strictly_subsumes(other.concept, parameter.concept):
                match = match or (other.name, True)
        if match is None:
            return None
        used.add(match[0])
        relaxed = relaxed or match[1]
        input_map[parameter.name] = match[0]
    output_map: dict[str, str] = {}
    used = set()
    for parameter in unavailable.outputs:
        match = None
        for other in candidate.outputs:
            if other.name in used:
                continue
            if not compatible(other.structural, parameter.structural):
                continue
            if parameter.concept == other.concept:
                match = (other.name, False)
                break
            if ontology.strictly_subsumes(other.concept, parameter.concept):
                match = match or (other.name, True)
        if match is None:
            return None
        used.add(match[0])
        relaxed = relaxed or match[1]
        output_map[parameter.name] = match[0]
    return ParameterMapping(inputs=input_map, outputs=output_map, relaxed=relaxed)


def compare_behavior(
    ctx: ModuleContext,
    unavailable: Module,
    examples: "list[DataExample]",
    candidate: Module,
    mapping: ParameterMapping,
    invoker: Invoker = DirectInvoker(),
) -> MatchReport | None:
    """Invoke the candidate on the examples' inputs and classify.

    Args:
        invoker: What the candidate runs through — pass an
            :class:`~repro.engine.invoker.InvocationEngine` to route the
            comparison through its stack (cache, retries, watchdog).  A
            call that still fails counts as not agreeing.

    Returns ``None`` when there are no examples to compare.
    """
    if not examples:
        return None
    input_map, output_map = mapping.inputs, mapping.outputs
    agreement_domain: dict[str, set[str]] = {}
    n_agreeing = 0
    for example in examples:
        bindings = {input_map[b.parameter]: b.value for b in example.inputs}
        try:
            outputs = invoker.invoke(candidate, ctx, bindings)
        except ModuleInvocationError:
            continue
        # An example agrees when every mapped output is present and its
        # payload is ``==`` the expected one (raw equality: ``1 == 1.0``,
        # NaN never agrees with NaN unless it is the same object).
        for b in example.outputs:
            name = output_map[b.parameter]
            if name not in outputs or not outputs[name].payload == b.value.payload:
                break
        else:
            n_agreeing += 1
            for binding in example.inputs:
                concept = binding.partition or binding.value.concept
                if concept is not None:
                    agreement_domain.setdefault(binding.parameter, set()).add(concept)
    if n_agreeing == len(examples) and not mapping.relaxed:
        kind = MatchKind.EQUIVALENT
    elif n_agreeing > 0:
        kind = MatchKind.OVERLAPPING
    else:
        kind = MatchKind.DISJOINT
    return MatchReport(
        unavailable_id=unavailable.module_id,
        candidate_id=candidate.module_id,
        kind=kind,
        mapping=mapping,
        n_examples=len(examples),
        n_agreeing=n_agreeing,
        agreement_domain=agreement_domain,
    )


def find_matches(
    ctx: ModuleContext,
    unavailable: Module,
    examples: "list[DataExample]",
    candidates: "list[Module] | tuple[Module, ...]",
    invoker: Invoker = DirectInvoker(),
) -> "list[MatchReport]":
    """Compare ``unavailable`` against every candidate with a compatible
    signature; equivalents first, then overlaps by agreement count."""
    reports: list[MatchReport] = []
    for candidate in candidates:
        if not candidate.available:
            continue
        mapping = map_parameters(ctx.ontology, unavailable, candidate)
        if mapping is None:
            continue
        report = compare_behavior(
            ctx, unavailable, examples, candidate, mapping, invoker=invoker
        )
        if report is not None:
            reports.append(report)
    order = {MatchKind.EQUIVALENT: 0, MatchKind.OVERLAPPING: 1, MatchKind.DISJOINT: 2}
    reports.sort(key=lambda r: (order[r.kind], -r.n_agreeing, r.candidate_id))
    return reports


def best_match(reports: "list[MatchReport]") -> MatchReport | None:
    """The best usable match: an equivalent if any, else the strongest
    overlap; ``None`` when only disjoint/incomparable candidates exist."""
    for report in reports:
        if report.kind in (MatchKind.EQUIVALENT, MatchKind.OVERLAPPING):
            return report
    return None
