"""The campaign flight recorder: span trees persisted in the journal.

A campaign's journal (PR 2) already makes *results* crash-safe; the
flight recorder does the same for *observations*.  Wired as the tracer's
sink, it commits every completed span tree into the journal's span
table (:mod:`repro.processlog`) the moment the invocation finishes — its own
transaction, exactly like report entries — so a SIGKILLed campaign
leaves a complete timeline of everything that ran before the kill, and
``repro-cli trace`` reconstructs it from the journal file alone.

Spans are observations, not results: they never feed report reassembly,
so recording them cannot perturb the kill/resume byte-identity guarantee
(the degraded/complete report of a traced campaign is byte-identical to
an untraced one).
"""

from __future__ import annotations

from repro.obs.tracing import Span


class FlightRecorder:
    """A tracer sink that journals every completed span tree.

    Install it once the campaign id is known (the runner does this at
    ``run``/``resume`` time)::

        engine.tracer.sink = FlightRecorder(journal, campaign_id)

    Args:
        journal: The campaign's :class:`~repro.campaign.journal.CampaignJournal`.
        campaign_id: The campaign every recorded span belongs to.
    """

    def __init__(self, journal, campaign_id: str) -> None:
        self.journal = journal
        self.campaign_id = campaign_id
        self.recorded = 0

    def __call__(self, span: Span) -> None:
        """Commit one completed root span (the tracer sink protocol)."""
        self.journal.record_span(self.campaign_id, span.to_dict())
        self.recorded += 1


def load_spans(
    journal, campaign_id: str, module_id: "str | None" = None
) -> "list[Span]":
    """Reconstruct a campaign's span trees from its journal.

    Spans come back in recording order — the campaign's invocation
    timeline — each a full :class:`~repro.obs.tracing.Span` tree with
    per-layer timings.

    Args:
        journal: The campaign's journal.
        campaign_id: The campaign.
        module_id: Restrict to one module's invocations.
    """
    return [
        Span.from_dict(data)
        for _, _, data in journal.processes.spans(campaign_id, module_id=module_id)
    ]


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _render_span_tree(root: Span) -> "list[str]":
    lines = []
    for depth, span in root.walk():
        label = f"{'  ' * depth}{span.name}"
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(span.attributes.items())
        )
        line = (
            f"    {label:<24} {span.outcome:<22} {span.duration_ms:>9.3f}ms"
        )
        if attrs:
            line += f"  {attrs}"
        if span.detail and span.outcome != "ok":
            line += f"  [{span.detail[:60]}]"
        lines.append(line)
    return lines


def render_trace(
    spans: "list[Span]",
    campaign_id: str = "",
    slowest: "int | None" = None,
    limit: "int | None" = None,
) -> str:
    """The flight-recorder report of one campaign.

    Three sections: a header with totals, a per-module rollup
    (invocations, failures, total/max cost — the *where did the time go*
    answer), and full span trees — either the ``slowest`` N invocations
    by root duration, or the first ``limit`` in timeline order (all of
    them when neither is given).

    Args:
        spans: The reconstructed span trees (``load_spans``).
        campaign_id: Header label.
        slowest: Show only the N slowest invocations' trees.
        limit: Show only the first N trees in timeline order.
    """
    title = f"Flight recorder — campaign {campaign_id}" if campaign_id else (
        "Flight recorder"
    )
    if not spans:
        return f"{title}\n  no spans journaled (campaign ran without --trace?)"

    failures = [span for span in spans if span.outcome != "ok"]
    total_ms = sum(span.duration_ms for span in spans)
    lines = [
        title,
        f"  invocations: {len(spans)} traced, {len(failures)} failed, "
        f"{total_ms:.1f}ms total",
    ]

    # Per-module rollup, most expensive first.
    rollup: "dict[str, dict]" = {}
    for span in spans:
        entry = rollup.setdefault(
            span.module_id,
            {"calls": 0, "failed": 0, "total_ms": 0.0, "max_ms": 0.0},
        )
        entry["calls"] += 1
        entry["failed"] += span.outcome != "ok"
        entry["total_ms"] += span.duration_ms
        entry["max_ms"] = max(entry["max_ms"], span.duration_ms)
    lines.append("  per-module cost (most expensive first):")
    by_cost = sorted(
        rollup.items(), key=lambda item: item[1]["total_ms"], reverse=True
    )
    for module_id, entry in by_cost:
        lines.append(
            f"    {module_id:<34} calls={entry['calls']:<4} "
            f"failed={entry['failed']:<3} total={entry['total_ms']:>9.3f}ms "
            f"max={entry['max_ms']:>8.3f}ms"
        )

    if slowest is not None:
        shown = sorted(spans, key=lambda span: span.duration_ms, reverse=True)
        shown = shown[:slowest]
        lines.append(f"  slowest {len(shown)} invocations:")
    else:
        shown = spans if limit is None else spans[:limit]
        label = f"first {len(shown)}" if limit is not None else "all"
        lines.append(f"  timeline ({label} of {len(spans)} invocations):")
    for span in shown:
        lines.append("")
        lines.extend(_render_span_tree(span))
    return "\n".join(lines)
