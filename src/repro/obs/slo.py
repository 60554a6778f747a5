"""Declarative SLOs with multi-window burn-rate alerting.

An SLO states an objective over the campaign's invocation stream —
"99% of calls to a provider are answered", "95% of calls finish under
the latency bound", "99.9% of checked outputs conform", "coverage keeps
advancing while work is pending".  The evaluator turns the sampled
time-series (:mod:`repro.obs.timeseries`) into **burn rates**: the
window's error fraction divided by the error budget, so a burn of 1.0
consumes budget exactly as fast as the objective allows, and a burn of
10 exhausts it ten times too fast.

Alerting uses the standard *multi-window* rule: an alert fires only
when both a fast window (catches the acute failure quickly) and a slow
window (suppresses blips the retry layer already rode out) burn above
their thresholds, and resolves once the fast window drops back under
budget.  Each transition is an **alert event** — journaled into
``campaign_alerts`` by the sampler, exported as gauges by
:func:`repro.obs.metrics.render_prometheus`, and consumed by
:func:`repro.workflow.monitoring.analyze_decay` as a decay signal.

Behavioral drift (:mod:`repro.obs.drift`) enters the same lifecycle
through :meth:`SLOEvaluator.register_drift`: a drifting module is an
alert like any other, with classification detail attached.

State reconstruction after a crash folds the journaled event history:
the last event per ``(slo, subject)`` — and per ``slot`` for the
replicas of a serving fleet — wins (:func:`alert_states`), so
``repro-cli alerts`` needs nothing but the journal.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

from repro.obs.timeseries import (
    TimeSeriesRing,
    counter_delta,
    latency_over,
    provider_deltas,
    slot_of,
)

#: Alert lifecycle states.
FIRING = "firing"
RESOLVED = "resolved"

#: SLO kinds understood by the evaluator.
KINDS = ("availability", "latency_p95", "conformance", "coverage_progress", "drift")


@dataclass(frozen=True)
class SLO:
    """One declarative objective.

    Attributes:
        name: Stable identifier (the alert / gauge label).
        kind: One of :data:`KINDS` (``drift`` alerts are registered
            directly, never window-evaluated).
        objective: Kind-specific target — minimum success fraction for
            availability/conformance, the latency bound in milliseconds
            for ``latency_p95``, unused for ``coverage_progress``.
        budget: Allowed error fraction; the burn-rate denominator.
        fast_window / slow_window: Window widths in samples (the fast
            window reacts, the slow window confirms).
        fast_burn / slow_burn: Burn thresholds both windows must exceed
            for the alert to fire.
        per_provider: Evaluate one subject per provider instead of one
            campaign-wide subject.
    """

    name: str
    kind: str
    objective: float
    budget: float
    fast_window: int = 3
    slow_window: int = 10
    fast_burn: float = 10.0
    slow_burn: float = 2.0
    per_provider: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.budget <= 1.0:
            raise ValueError("budget must be a fraction in (0, 1]")
        if self.fast_window < 2 or self.slow_window < 2:
            raise ValueError("windows must span at least 2 samples")
        if self.fast_window > self.slow_window:
            raise ValueError("fast window must not exceed the slow window")


#: The default SLO set a campaign runs under.  Availability is judged
#: per provider (the breaker / health aggregation key); the stall
#: detector fires on a single fully-stalled window pair (burn 1.0 with
#: a 0.5 budget yields burn 2.0 >= both thresholds).
DEFAULT_SLOS: "tuple[SLO, ...]" = (
    SLO(
        name="availability",
        kind="availability",
        objective=0.99,
        budget=0.01,
        per_provider=True,
    ),
    SLO(name="latency-p95", kind="latency_p95", objective=250.0, budget=0.05),
    SLO(name="conformance", kind="conformance", objective=0.999, budget=0.001),
    SLO(
        name="coverage-progress",
        kind="coverage_progress",
        objective=0.0,
        budget=0.5,
        fast_window=4,
        slow_window=8,
        fast_burn=2.0,
        slow_burn=2.0,
    ),
)

#: The synthetic SLO name drift alerts are filed under.
DRIFT_SLO_NAME = "behavior-drift"

#: Campaign-wide alert subject for non-per-provider SLOs.
CAMPAIGN_SUBJECT = "campaign"


@dataclass(frozen=True)
class Alert:
    """Current state of one ``(slo, subject)`` pair.

    Attributes:
        slo: The SLO's name.
        kind: The SLO's kind.
        subject: Provider name, module id, or ``campaign``.
        state: ``firing`` or ``resolved``.
        t_ms: Sample timestamp of the last transition.
        detail: Human-readable context (burn rates, drift class).
        burn_fast / burn_slow: Burn rates at the last evaluation.
    """

    slo: str
    kind: str
    subject: str
    state: str
    t_ms: float
    detail: str = ""
    burn_fast: float = 0.0
    burn_slow: float = 0.0

    def to_event(self) -> dict:
        """The journal / exposition representation of this state."""
        return {
            "slo": self.slo,
            "kind": self.kind,
            "subject": self.subject,
            "state": self.state,
            "t_ms": self.t_ms,
            "detail": self.detail,
        }


# ----------------------------------------------------------------------
# Window error fractions.  Each takes the first and last sample of a
# window of cumulative values and returns error fractions per subject.

def _availability_fractions(slo: SLO, old: dict, new: dict) -> "dict[str, float]":
    if slo.per_provider:
        fractions: dict[str, float] = {}
        for provider, delta in provider_deltas(old, new).items():
            if delta["calls"] > 0:
                failed = delta["calls"] - delta["answered"]
                fractions[provider] = failed / delta["calls"]
        return fractions
    calls = counter_delta(old, new, "calls")
    if calls <= 0:
        return {}
    answered = (
        counter_delta(old, new, "ok")
        + counter_delta(old, new, "invalid")
        + counter_delta(old, new, "malformed")
    )
    return {CAMPAIGN_SUBJECT: max(0, calls - answered) / calls}


def _latency_fractions(slo: SLO, old: dict, new: dict) -> "dict[str, float]":
    over, total = latency_over(old, new, slo.objective)
    if total <= 0:
        return {}
    return {CAMPAIGN_SUBJECT: over / total}


def _conformance_fractions(slo: SLO, old: dict, new: dict) -> "dict[str, float]":
    before, after = old.get("conformance"), new.get("conformance")
    if not before or not after:
        return {}
    checked = after["checked"] - before["checked"]
    if checked <= 0:
        return {}
    violations = after["violations"] - before["violations"]
    return {CAMPAIGN_SUBJECT: max(0, violations) / checked}


def _progress_fractions(slo: SLO, old: dict, new: dict) -> "dict[str, float]":
    if new["progress"]["n_pending"] <= 0:
        # Nothing left to do: a quiet campaign is not a stalled one.
        return {CAMPAIGN_SUBJECT: 0.0}
    advanced = (
        new["progress"]["n_done"] - old["progress"]["n_done"]
        + new["progress"]["n_skipped"] - old["progress"]["n_skipped"]
    )
    return {CAMPAIGN_SUBJECT: 0.0 if advanced > 0 else 1.0}


_FRACTIONS = {
    "availability": _availability_fractions,
    "latency_p95": _latency_fractions,
    "conformance": _conformance_fractions,
    "coverage_progress": _progress_fractions,
}


def window_burns(slo: SLO, window: "list[dict]") -> "dict[str, float]":
    """Per-subject burn rates over one window of samples.

    The window must not straddle two processes (cumulative values
    restart with each); mixed windows are truncated to the newest
    sample's slot and run segment.  Fewer than 2 samples yields no burns.
    """
    if len(window) >= 2:
        run, slot = window[-1].get("run"), slot_of(window[-1])
        window = [
            sample
            for sample in window
            if sample.get("run") == run and slot_of(sample) == slot
        ]
    if len(window) < 2:
        return {}
    fractions = _FRACTIONS[slo.kind](slo, window[0], window[-1])
    return {
        subject: fraction / slo.budget
        for subject, fraction in fractions.items()
    }


# ----------------------------------------------------------------------

class SLOEvaluator:
    """Evaluates SLOs over the sample ring and tracks alert lifecycle.

    Thread-safe; the campaign sampler drives :meth:`evaluate` once per
    sample and journals whatever events it returns.  State is kept per
    ``(slo, subject)``: a pair transitions to ``firing`` when both
    windows burn above threshold, back to ``resolved`` when the fast
    window drops under budget (burn < 1.0).  Only *transitions* emit
    events, so a sustained outage journals one ``firing`` event, not
    one per probe round.
    """

    def __init__(self, slos: "tuple[SLO, ...]" = DEFAULT_SLOS) -> None:
        names = [slo.name for slo in slos]
        if len(names) != len(set(names)):
            raise ValueError("SLO names must be unique")
        self.slos = tuple(slos)
        self._lock = threading.Lock()
        self._alerts: dict[tuple[str, str], Alert] = {}
        #: Evaluation rounds performed (dashboard / tests).
        self.evaluations = 0

    # ------------------------------------------------------------------
    def evaluate(self, ring: TimeSeriesRing) -> "list[dict]":
        """One evaluation round; returns newly emitted alert events."""
        events: list[dict] = []
        last = ring.last()
        if last is None:
            return events
        t_ms = last["t_ms"]
        with self._lock:
            self.evaluations += 1
            for slo in self.slos:
                if slo.kind == "drift":
                    continue
                fast = window_burns(slo, ring.window(slo.fast_window))
                slow = window_burns(slo, ring.window(slo.slow_window))
                for subject in sorted(set(fast) | set(slow)):
                    burn_fast = fast.get(subject, 0.0)
                    burn_slow = slow.get(subject, 0.0)
                    events.extend(
                        self._transition(slo, subject, burn_fast, burn_slow, t_ms)
                    )
        return events

    def _transition(
        self, slo: SLO, subject: str, burn_fast: float, burn_slow: float, t_ms: float
    ) -> "list[dict]":
        key = (slo.name, subject)
        current = self._alerts.get(key)
        firing_now = burn_fast >= slo.fast_burn and burn_slow >= slo.slow_burn
        if current is None or current.state != FIRING:
            if not firing_now:
                if current is not None:
                    self._alerts[key] = replace(
                        current, burn_fast=burn_fast, burn_slow=burn_slow
                    )
                return []
            alert = Alert(
                slo=slo.name,
                kind=slo.kind,
                subject=subject,
                state=FIRING,
                t_ms=t_ms,
                detail=(
                    f"burn fast={burn_fast:.1f} slow={burn_slow:.1f} "
                    f"(thresholds {slo.fast_burn:g}/{slo.slow_burn:g})"
                ),
                burn_fast=burn_fast,
                burn_slow=burn_slow,
            )
            self._alerts[key] = alert
            return [alert.to_event()]
        # Currently firing: resolve only once the fast window is back
        # under budget — hysteresis against flapping at the threshold.
        if burn_fast < 1.0:
            alert = replace(
                current,
                state=RESOLVED,
                t_ms=t_ms,
                detail=f"burn fast={burn_fast:.1f} back under budget",
                burn_fast=burn_fast,
                burn_slow=burn_slow,
            )
            self._alerts[key] = alert
            return [alert.to_event()]
        self._alerts[key] = replace(
            current, burn_fast=burn_fast, burn_slow=burn_slow
        )
        return []

    # ------------------------------------------------------------------
    def register_drift(self, drift_report, t_ms: float) -> "dict | None":
        """File a drift report into the alert lifecycle.

        A drifted module (overlapping or disjoint regenerated examples)
        fires; a module back to equivalent resolves.  Returns the alert
        event on a state transition, ``None`` when nothing changed.
        """
        key = (DRIFT_SLO_NAME, drift_report.module_id)
        with self._lock:
            current = self._alerts.get(key)
            if drift_report.drifted:
                if current is not None and current.state == FIRING:
                    return None
                alert = Alert(
                    slo=DRIFT_SLO_NAME,
                    kind="drift",
                    subject=drift_report.module_id,
                    state=FIRING,
                    t_ms=t_ms,
                    detail=drift_report.describe(),
                )
            else:
                if current is None or current.state != FIRING:
                    return None
                alert = replace(
                    current,
                    state=RESOLVED,
                    t_ms=t_ms,
                    detail=drift_report.describe(),
                )
            self._alerts[key] = alert
            return alert.to_event()

    # ------------------------------------------------------------------
    def alerts(self) -> "list[Alert]":
        """Every tracked ``(slo, subject)`` state, sorted."""
        with self._lock:
            return [self._alerts[key] for key in sorted(self._alerts)]

    def firing(self) -> "list[Alert]":
        return [alert for alert in self.alerts() if alert.state == FIRING]

    def snapshot(self) -> dict:
        """The ``slo`` section merged into ``engine.stats()`` for the
        metrics exporter: burn-rate gauges + alert states."""
        alerts = self.alerts()
        return {
            "slos": [
                {"name": slo.name, "kind": slo.kind, "budget": slo.budget}
                for slo in self.slos
            ],
            "burn_rates": [
                {
                    "slo": alert.slo,
                    "subject": alert.subject,
                    "fast": alert.burn_fast,
                    "slow": alert.burn_slow,
                }
                for alert in alerts
                if alert.kind != "drift"
            ],
            "alerts": [alert.to_event() for alert in alerts],
            "n_firing": sum(1 for alert in alerts if alert.state == FIRING),
        }


# ----------------------------------------------------------------------
# Reconstruction from the journal alone (crash recovery, CLI).

def alert_key(event: dict) -> tuple:
    """``(slo, subject)``, plus the ``slot`` of a fleet replica's event:
    each replica evaluates its own SLOs, so its alerts are its own."""
    key = (event["slo"], event["subject"])
    return key + (event["slot"],) if "slot" in event else key


def alert_states(events: "list[dict]") -> "dict[tuple, dict]":
    """Fold an event history into current states: last event per
    :func:`alert_key` wins.  Events must be in recording order, which
    is what ``journal.alerts()`` returns."""
    return {alert_key(event): event for event in events}


def alert_subject(event: dict) -> str:
    """The subject as operators read it: a replica's events name it."""
    if "slot" in event:
        return f"{event['subject']} @replica {event['slot']}"
    return event["subject"]


def firing_alerts(events: "list[dict]") -> "list[dict]":
    """Currently firing alerts from a journaled event history."""
    states = alert_states(events)
    return [states[key] for key in sorted(states) if states[key]["state"] == FIRING]


def render_alerts(events: "list[dict]", firing_only: bool = False) -> str:
    """Operator-facing alert listing (``repro-cli alerts``)."""
    states = alert_states(events)
    rows = [states[key] for key in sorted(states)]
    if firing_only:
        rows = [row for row in rows if row["state"] == FIRING]
    n_firing = sum(1 for row in rows if row["state"] == FIRING)
    if not states:
        return "No alert history journaled."
    header = (
        f"Alerts — {n_firing} firing, "
        f"{len(states)} tracked, {len(events)} events"
    )
    lines = [header]
    for row in rows:
        lines.append(
            f"  {row['state'].upper():<9} {row['slo']:<16} "
            f"{alert_subject(row):<28} t+{row['t_ms'] / 1000.0:.1f}s  "
            f"{row['detail']}"
        )
    if firing_only and not rows:
        lines.append("  (none firing)")
    return "\n".join(lines)
