"""Behavioral drift detection over regenerated data examples.

The §6 monitoring loop exists because modules decay: a provider still
*answers* but no longer computes what its annotation (and its harvested
data examples) say it computes.  The conformance layer catches outputs
that violate the declared *interface*; drift detection catches outputs
that are interface-conformant yet *different from the module's own
recorded behavior*.

The mechanism is the paper's matcher turned inward: instead of
comparing an unavailable module against a candidate replacement, we
compare a module against **its own baseline** — re-invoke it on the
exact input realizations of its baseline data examples and classify the
old-vs-new example sets with the §6 agreement rule:

* **equivalent** — every baseline input reproduces its recorded
  outputs: no drift;
* **overlapping** — some inputs still agree, others changed: partial
  drift (the module's behavior changed on part of its domain);
* **disjoint** — nothing agrees: the module has wholly drifted (or was
  replaced behind its endpoint).

Two entry points: :class:`DriftDetector` re-invokes live (through the
resilient engine, so a hung or dark provider degrades to an invocation
failure rather than wedging the monitor), while
:func:`classify_example_sets` compares two already-materialized example
sets — the path campaigns use to diff a fresh report against a
journaled baseline campaign without extra invocations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.examples import Binding, DataExample
from repro.core.matching import MatchKind
from repro.modules.errors import ModuleInvocationError
from repro.values.canonical import payload_json


def input_key(example: DataExample) -> "tuple[tuple[str, str], ...]":
    """The identity of an example's input realization: parameter names
    with canonical payloads (:func:`~repro.values.canonical.payload_json`,
    NaN self-equal), order-insensitive."""
    return tuple(
        sorted((b.parameter, payload_json(b.value.payload)) for b in example.inputs)
    )


def _output_signature(example: DataExample) -> "dict[str, str]":
    return {b.parameter: payload_json(b.value.payload) for b in example.outputs}


@dataclass(frozen=True)
class DriftReport:
    """Old-vs-new classification of one module's example sets.

    Attributes:
        module_id: The module under observation.
        kind: The §6 relationship between baseline and regenerated
            behavior (:class:`~repro.core.matching.MatchKind`).
        n_baseline: Baseline examples compared.
        n_current: Regenerated examples obtained.
        n_agreeing: Baseline inputs whose outputs were reproduced.
        n_changed: Baseline inputs answered with *different* outputs.
        n_lost: Baseline inputs that produced no regenerated example
            (invocation failed or the combination went invalid).
    """

    module_id: str
    kind: MatchKind
    n_baseline: int
    n_current: int
    n_agreeing: int
    n_changed: int
    n_lost: int

    @property
    def drifted(self) -> bool:
        """True unless the regenerated behavior is equivalent."""
        return self.kind is not MatchKind.EQUIVALENT

    def describe(self) -> str:
        """One-line operator-facing classification."""
        return (
            f"{self.kind.value}: {self.n_agreeing}/{self.n_baseline} "
            f"baseline examples reproduced "
            f"({self.n_changed} changed, {self.n_lost} lost)"
        )


def classify_example_sets(
    module_id: str,
    baseline: "list[DataExample]",
    current: "list[DataExample]",
) -> DriftReport:
    """Classify two example sets for the same module.

    Agreement follows :func:`repro.core.matching.compare_behavior` under
    the identity mapping: a baseline example agrees when the current set
    contains an example with the same input realization and
    payload-equal outputs.  Classification is judged over the baseline's
    domain — extra current-only inputs don't demote equivalence (they
    widen coverage, they don't contradict recorded behavior).

    Raises:
        ValueError: With no baseline examples there is no recorded
            behavior to drift from.
    """
    if not baseline:
        raise ValueError(f"no baseline examples for {module_id}")
    current_by_key: dict = {}
    for example in current:
        current_by_key[input_key(example)] = _output_signature(example)
    n_agreeing = n_changed = n_lost = 0
    for example in baseline:
        regenerated = current_by_key.get(input_key(example))
        if regenerated is None:
            n_lost += 1
        elif regenerated == _output_signature(example):
            n_agreeing += 1
        else:
            n_changed += 1
    if n_agreeing == len(baseline):
        kind = MatchKind.EQUIVALENT
    elif n_agreeing > 0:
        kind = MatchKind.OVERLAPPING
    else:
        kind = MatchKind.DISJOINT
    return DriftReport(
        module_id=module_id,
        kind=kind,
        n_baseline=len(baseline),
        n_current=len(current),
        n_agreeing=n_agreeing,
        n_changed=n_changed,
        n_lost=n_lost,
    )


class DriftDetector:
    """Re-invokes a module on its baseline inputs and classifies drift.

    Args:
        ctx: The module execution context.
        engine: The invoker to call through — pass the campaign's
            resilient engine so watchdog / breaker / retry semantics
            apply to monitoring traffic exactly as to harvesting
            traffic.  Defaults to a plain engine.
    """

    def __init__(self, ctx, engine=None) -> None:
        if engine is None:
            from repro.engine.invoker import InvocationEngine

            engine = InvocationEngine()
        self.ctx = ctx
        self.engine = engine

    def regenerate(self, module, baseline: "list[DataExample]") -> "list[DataExample]":
        """Fresh examples over the baseline's input realizations.

        Inputs whose invocation fails (unavailable, timed out, rejected,
        malformed) yield no regenerated example — they surface as *lost*
        in the classification, which is itself a drift signal.
        """
        regenerated: list[DataExample] = []
        for example in baseline:
            bindings = {b.parameter: b.value for b in example.inputs}
            try:
                outputs = self.engine.invoke(module, self.ctx, bindings)
            except ModuleInvocationError:
                continue
            regenerated.append(
                DataExample(
                    module_id=module.module_id,
                    inputs=example.inputs,
                    outputs=tuple(
                        Binding(parameter=parameter.name, value=outputs[parameter.name])
                        for parameter in module.outputs
                        if parameter.name in outputs
                    ),
                )
            )
        return regenerated

    def check(self, module, baseline: "list[DataExample]") -> DriftReport:
        """Regenerate over the baseline inputs and classify."""
        current = self.regenerate(module, baseline)
        return classify_example_sets(module.module_id, baseline, current)


def campaign_drift(
    journal,
    baseline_campaign_id: str,
    reports: "dict",
) -> "list[DriftReport]":
    """Diff fresh generation reports against a journaled baseline
    campaign, module by module.

    Args:
        journal: The campaign journal holding the baseline.
        baseline_campaign_id: The earlier campaign recording the
            modules' reference behavior.
        reports: ``module_id -> GenerationReport`` from the current run.

    Returns:
        One :class:`DriftReport` per module present (with examples) in
        both campaigns, sorted by module id.
    """
    baseline_entries = journal.entries(baseline_campaign_id)
    drift_reports: list[DriftReport] = []
    for module_id in sorted(reports):
        entry = baseline_entries.get(module_id)
        if entry is None or entry.report is None or not entry.report.examples:
            continue
        current = reports[module_id]
        if current is None:
            continue
        drift_reports.append(
            classify_example_sets(
                module_id, entry.report.examples, current.examples
            )
        )
    return drift_reports


def render_drift(reports: "list[DriftReport]") -> str:
    """Operator-facing drift table."""
    if not reports:
        return "No modules compared against a baseline."
    drifted = [report for report in reports if report.drifted]
    lines = [
        f"Behavioral drift — {len(drifted)}/{len(reports)} modules drifted"
    ]
    for report in reports:
        marker = "!" if report.drifted else " "
        lines.append(f"  {marker} {report.module_id:<28} {report.describe()}")
    return "\n".join(lines)
