"""Repairing decayed workflows with matched substitutes (§6).

For every broken workflow, each unavailable step is substituted:

* by an *equivalent* module whenever one exists;
* by an *overlapping* module only when the substitution is
  *context-safe*: every value that can flow into the step inside this
  workflow falls in the agreement sub-domain established by the matcher
  (the paper's "manual examination of the workflows", automated).

A repair is *validated* by re-enacting the workflow and checking that it
terminates normally and — when the workflow enacted before the decay —
that its final outputs equal the historical ones.  Workflows whose
remaining unavailable steps have no usable substitute are *partly
repaired* (73 of the paper's 334).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.examples import DataExample
from repro.core.matching import MatchKind, MatchReport
from repro.engine.invoker import DirectInvoker, Invoker
from repro.modules.model import Module, ModuleContext
from repro.pool.pool import InstancePool
from repro.workflow.enactment import Enactor
from repro.workflow.model import Workflow
from repro.workflow.provenance import ProvenanceTrace


class RepairOutcome(enum.Enum):
    FULL = "fully repaired"
    PARTIAL = "partly repaired"
    NONE = "not repaired"


@dataclass
class RepairResult:
    """Outcome of curating one workflow.

    Attributes:
        workflow_id: The workflow curated.
        outcome: Full / partial / none.
        substitutions: step id -> (old module id, new module id, kind).
        unresolved: Unavailable module ids that kept the workflow broken.
        validated: True when the repaired workflow re-enacted successfully
            and reproduced the historical final outputs.
        repaired: The repaired workflow (when any substitution applied).
    """

    workflow_id: str
    outcome: RepairOutcome
    substitutions: dict[str, tuple[str, str, MatchKind]] = field(default_factory=dict)
    unresolved: list[str] = field(default_factory=list)
    validated: bool = False
    repaired: Workflow | None = None


def _rename_links(workflow: Workflow, step_id: str, report: MatchReport) -> Workflow:
    """Rewrite the data links touching a substituted step through the
    match's parameter mapping (candidate parameter names may differ)."""
    from repro.workflow.model import DataLink

    links = []
    for link in workflow.links:
        to_input = link.to_input
        from_output = link.from_output
        if link.to_step == step_id:
            to_input = report.mapping.inputs.get(to_input, to_input)
        if link.from_step == step_id:
            from_output = report.mapping.outputs.get(from_output, from_output)
        links.append(
            DataLink(link.from_step, from_output, link.to_step, to_input)
        )
    return Workflow(workflow.workflow_id, workflow.name, workflow.steps, tuple(links))


class WorkflowRepairer:
    """Curates broken workflows using data-example matches."""

    def __init__(
        self,
        ctx: ModuleContext,
        modules_by_id: dict[str, Module],
        matches: dict[str, "list[MatchReport]"],
        pool: InstancePool,
        examples_by_id: "dict[str, list[DataExample]]",
        invoker: Invoker = DirectInvoker(),
    ) -> None:
        """Args:
            ctx: Execution context.
            modules_by_id: All modules (available and decayed) by id.
            matches: Per unavailable module id, its sorted match reports.
            pool: Pool used to feed free inputs during validation.
            examples_by_id: Every module's data examples; a producer's
                examples tell which concepts flow along its links.
            invoker: What the validating re-enactment calls modules
                through.
        """
        self.ctx = ctx
        self.modules_by_id = modules_by_id
        self.matches = matches
        self.examples_by_id = examples_by_id
        self.enactor = Enactor(ctx, modules_by_id, pool, invoker)

    # ------------------------------------------------------------------
    def repair(
        self, workflow: Workflow, historical: ProvenanceTrace | None = None
    ) -> RepairResult:
        """Curate one workflow; validates against ``historical`` when a
        pre-decay trace is supplied."""
        result = RepairResult(workflow_id=workflow.workflow_id, outcome=RepairOutcome.NONE)
        repaired = workflow
        for step in workflow.steps:
            module = self.modules_by_id.get(step.module_id)
            if module is None or module.available:
                continue
            substitute = self._substitute_for(workflow, step.step_id, module)
            if substitute is None:
                result.unresolved.append(step.module_id)
                continue
            report, new_module = substitute
            repaired = repaired.replace_module(step.step_id, new_module.module_id)
            repaired = _rename_links(repaired, step.step_id, report)
            result.substitutions[step.step_id] = (
                step.module_id,
                new_module.module_id,
                report.kind,
            )
        if not result.substitutions:
            return result
        result.repaired = repaired
        result.outcome = (
            RepairOutcome.PARTIAL if result.unresolved else RepairOutcome.FULL
        )
        if result.outcome is RepairOutcome.FULL:
            result.validated = self._validate(repaired, historical)
        return result

    def repair_all(
        self,
        workflows: "list[Workflow]",
        historical: dict[str, ProvenanceTrace] | None = None,
    ) -> "list[RepairResult]":
        """Curate a collection of workflows."""
        historical = historical or {}
        return [
            self.repair(workflow, historical.get(workflow.workflow_id))
            for workflow in workflows
        ]

    # ------------------------------------------------------------------
    def _substitute_for(
        self, workflow: Workflow, step_id: str, module: Module
    ) -> "tuple[MatchReport, Module] | None":
        for report in self.matches.get(module.module_id, ()):
            candidate = self.modules_by_id.get(report.candidate_id)
            if candidate is None or not candidate.available:
                continue
            if report.kind is MatchKind.EQUIVALENT:
                return report, candidate
            if report.kind is MatchKind.OVERLAPPING and self._context_safe(
                workflow, step_id, module, report
            ):
                return report, candidate
        return None

    def _context_safe(
        self,
        workflow: Workflow,
        step_id: str,
        module: Module,
        report: MatchReport,
    ) -> bool:
        """True when every value that can reach the step falls inside the
        match's agreement sub-domain (§6, Figure 7)."""
        ontology = self.ctx.ontology
        incoming = {link.to_input: link for link in workflow.incoming(step_id)}
        for parameter in module.inputs:
            agreement = report.agreement_domain.get(parameter.name, set())
            if not agreement:
                return False
            link = incoming.get(parameter.name)
            if link is None:
                # Free input: any realizable partition of the annotation
                # can be fed, so all of them must be agreed on.
                flowing = {
                    c
                    for c in ontology.partitions_of(parameter.concept)
                    if ontology.has_realization(c)
                }
            else:
                # Linked input: the concepts the producer's data examples
                # show on that output, else its annotation.
                producer_id = workflow.step(link.from_step).module_id
                flowing = {
                    binding.value.concept
                    for example in self.examples_by_id.get(producer_id, ())
                    for binding in example.outputs
                    if binding.parameter == link.from_output
                    and binding.value.concept is not None
                } or {
                    self.modules_by_id[producer_id].output(link.from_output).concept
                }
            agreed = {
                c
                for c in flowing
                if any(ontology.subsumes(a, c) for a in agreement)
            }
            if agreed != flowing:
                return False
        return True

    def _validate(
        self, repaired: Workflow, historical: ProvenanceTrace | None
    ) -> bool:
        trace = self.enactor.try_enact(repaired)
        if not trace.succeeded:
            return False
        if historical is None or not historical.succeeded:
            return True
        mine = {b.parameter: b.value.payload for b in trace.final_outputs()}
        theirs = {b.parameter: b.value.payload for b in historical.final_outputs()}
        return mine == theirs
