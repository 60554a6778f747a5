"""End-to-end decayed-module repair driven by the signature index.

The closing §6 scenario at repository scale, as one pipeline:

1. **Detect** — :func:`repro.workflow.monitoring.analyze_decay`
   attributes broken workflows to decayed modules, merging the static
   catalog flag with campaign health, quarantine and alert signals.
2. **Query** — the signature index answers each decayed module's
   candidate list without invoking anything
   (:class:`repro.match.matcher.CandidateMatcher`).
3. **Rank** — exact §6 comparison over the surviving candidates,
   through the resilient engine; equivalents first, then overlaps by
   agreement count.
4. **Patch** — :class:`repro.core.repair.WorkflowRepairer` substitutes
   the ranked matches into the broken workflows (context-safety checked
   for overlapping substitutes) and re-enacts to validate.

The :class:`RepairPlan` bundles every stage's artifact so operators
(and the ``repro-cli match repair`` surface) can audit what was
detected, how much invocation work the index saved, and which
workflows came back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.repair import RepairOutcome, RepairResult, WorkflowRepairer
from repro.engine.invoker import DirectInvoker, Invoker
from repro.match.index import SignatureIndex
from repro.match.matcher import CandidateMatcher, MatchAccounting
from repro.workflow.decay import broken_workflows
from repro.workflow.monitoring import DecayReport, analyze_decay


@dataclass
class RepairPlan:
    """Everything one indexed repair pass produced."""

    decay: DecayReport
    matches: dict = field(default_factory=dict)
    accounting: MatchAccounting = field(default_factory=MatchAccounting)
    results: "list[RepairResult]" = field(default_factory=list)

    @property
    def n_full(self) -> int:
        return sum(1 for r in self.results if r.outcome is RepairOutcome.FULL)

    @property
    def n_partial(self) -> int:
        return sum(1 for r in self.results if r.outcome is RepairOutcome.PARTIAL)

    @property
    def n_unrepaired(self) -> int:
        return sum(1 for r in self.results if r.outcome is RepairOutcome.NONE)

    @property
    def n_validated(self) -> int:
        return sum(1 for r in self.results if r.validated)

    def summary(self) -> dict:
        return {
            "n_workflows": self.decay.n_workflows,
            "n_broken": self.decay.n_broken,
            "n_decayed_modules": len(self.decay.by_module),
            "n_full": self.n_full,
            "n_partial": self.n_partial,
            "n_unrepaired": self.n_unrepaired,
            "n_validated": self.n_validated,
            "matching": self.accounting.as_dict(),
        }


class IndexedRepairPlanner:
    """Detect decay, match replacements through the index, patch workflows.

    Args:
        ctx: The module context.
        modules_by_id: Every module (available and decayed) by id.
        examples_by_id: Every module's data examples.  A decayed
            module's are its pre-decay ones — §6: they can only come from
            provenance recorded while the module was still invocable.
            The matcher reads the decayed modules'; the repairer reads
            each producer's to tell what flows along its links.
        index: The populated signature index over the available catalog.
        pool: The instance pool used to feed free inputs during repair
            validation (anything with ``get_instance``).
        engine: The invoker the exact comparisons and the repairer's
            validating re-enactments go through.
        health / quarantine / alerts: Optional decay-detection signals,
            passed through to
            :func:`repro.workflow.monitoring.analyze_decay`.
    """

    def __init__(
        self,
        ctx,
        modules_by_id: dict,
        examples_by_id: dict,
        index: SignatureIndex,
        pool,
        engine: Invoker = DirectInvoker(),
        health=None,
        quarantine=None,
        alerts=None,
    ) -> None:
        self.ctx = ctx
        self.modules_by_id = modules_by_id
        self.examples_by_id = examples_by_id
        self.pool = pool
        self.engine = engine
        self.health = health
        self.quarantine = quarantine
        self.alerts = alerts
        self.matcher = CandidateMatcher(
            ctx, modules_by_id, examples_by_id, index, engine=engine
        )

    def plan(self, workflows: "list", historical: "dict | None" = None) -> RepairPlan:
        """Run the full detect → query → rank → patch pipeline.

        Args:
            workflows: The repository to examine and repair.
            historical: Optional pre-decay provenance traces by workflow
                id (repairs then validate against the historical final
                outputs, not just successful re-enactment).
        """
        decay = analyze_decay(
            workflows,
            self.modules_by_id,
            health=self.health,
            quarantine=self.quarantine,
            alerts=self.alerts,
        )
        plan = RepairPlan(decay=decay)
        decayed = [
            module_id
            for module_id in decay.decayed_modules()
            if module_id in self.modules_by_id
        ]
        if not decayed:
            return plan
        run = self.matcher.match_all(decayed)
        plan.matches = run.matches
        plan.accounting = run.accounting
        repairer = WorkflowRepairer(
            self.ctx, self.modules_by_id, run.matches, self.pool,
            self.examples_by_id, self.engine,
        )
        broken = broken_workflows(workflows, self.modules_by_id)
        plan.results = repairer.repair_all(broken, historical or {})
        return plan


def render_repair_plan(plan: RepairPlan, limit: int = 8) -> str:
    """An operator-facing summary of one indexed repair pass."""
    acc = plan.accounting
    lines = [
        "Indexed repair plan",
        f"  workflows examined:   {plan.decay.n_workflows}",
        f"  broken:               {plan.decay.n_broken}",
        f"  decayed modules:      {len(plan.decay.by_module)}",
        f"  candidate pairs:      {acc.candidate_pairs} "
        f"(of {acc.exhaustive_pairs} exhaustive, "
        f"{acc.pruning_ratio:.0%} pruned)",
        f"  engine invocations:   {acc.invocations}",
        f"  fully repaired:       {plan.n_full} ({plan.n_validated} validated)",
        f"  partly repaired:      {plan.n_partial}",
        f"  not repaired:         {plan.n_unrepaired}",
    ]
    substituted = [
        (r.workflow_id, step, old, new, kind.value)
        for r in plan.results
        for step, (old, new, kind) in sorted(r.substitutions.items())
    ]
    if substituted:
        lines.append(f"  substitutions (first {limit}):")
        for workflow_id, step, old, new, kind in substituted[:limit]:
            lines.append(f"    {workflow_id}:{step}  {old} -> {new}  [{kind}]")
    return "\n".join(lines)
