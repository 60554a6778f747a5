"""Candidate-restricted §6 matching: exact verification after pruning.

The :class:`~repro.match.index.SignatureIndex` answers *which pairs are
worth invoking*; this module runs the paper's exact comparison
(:func:`repro.core.matching.compare_behavior` — invoke the candidate on
the query's example inputs, classify the agreement) on the survivors
only, through the resilient invocation engine.  The accounting makes
the pruning auditable: how many pairs the exhaustive matcher would have
attempted, how many survived the index, and how many engine invocations
were actually spent.

:func:`classification_digest` collapses a full match result to one
sha256 — the witness the exactness property test pins: pruned and
exhaustive matching over the paper catalog must produce *byte-identical*
classifications.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.core.examples import DataExample
from repro.core.matching import (
    MatchKind,
    MatchReport,
    compare_behavior,
    map_parameters,
)
from repro.match.index import IndexedModule, SignatureIndex
from repro.modules.model import Module, ModuleContext

_ORDER = {"equivalent": 0, "overlapping": 1, "disjoint": 2}


@dataclass
class MatchAccounting:
    """Work accounting of one candidate-restricted matching run.

    Attributes:
        n_queries: Query modules matched.
        n_catalog: Available candidate modules considered.
        exhaustive_pairs: Pairs the exhaustive matcher would attempt
            (``n_queries × n_catalog``, minus self-pairs).
        candidate_pairs: Pairs surviving the index — the only ones that
            reached :func:`repro.core.matching.map_parameters`.
        mapped_pairs: Surviving pairs with a viable parameter mapping
            (the only ones that cost invocations).
        invocations: Engine invocations actually spent.
    """

    n_queries: int = 0
    n_catalog: int = 0
    exhaustive_pairs: int = 0
    candidate_pairs: int = 0
    mapped_pairs: int = 0
    invocations: int = 0

    @property
    def pruned_pairs(self) -> int:
        return self.exhaustive_pairs - self.candidate_pairs

    @property
    def pruning_ratio(self) -> float:
        """Fraction of the exhaustive pair space the index discarded."""
        if not self.exhaustive_pairs:
            return 0.0
        return self.pruned_pairs / self.exhaustive_pairs

    def as_dict(self) -> dict:
        return {
            "n_queries": self.n_queries,
            "n_catalog": self.n_catalog,
            "exhaustive_pairs": self.exhaustive_pairs,
            "candidate_pairs": self.candidate_pairs,
            "pruned_pairs": self.pruned_pairs,
            "mapped_pairs": self.mapped_pairs,
            "invocations": self.invocations,
            "pruning_ratio": round(self.pruning_ratio, 6),
        }


@dataclass
class MatchRun:
    """The result of :meth:`CandidateMatcher.match_all`."""

    matches: "dict[str, list[MatchReport]]"
    accounting: MatchAccounting = field(default_factory=MatchAccounting)


class CandidateMatcher:
    """Run exact §6 matching over index-surviving candidate pairs.

    Args:
        ctx: The module context (ontology for parameter mapping).
        modules_by_id: Every module, queries and catalog alike.
        examples_by_id: Each query module's data examples (the inputs
            the candidates are invoked on).
        index: The populated signature index over the *catalog* (the
            available replacement candidates).
        engine: Optional invocation engine; candidate invocations then
            flow through its full resilience stack (cache, retries,
            watchdog) and are visible in its telemetry.  Without one,
            the bare supply interface is called.
    """

    def __init__(
        self,
        ctx: ModuleContext,
        modules_by_id: "dict[str, Module]",
        examples_by_id: "dict[str, list[DataExample]]",
        index: SignatureIndex,
        engine=None,
    ) -> None:
        self.ctx = ctx
        self.modules_by_id = modules_by_id
        self.examples_by_id = examples_by_id
        self.index = index
        self.engine = engine
        self._invocations = 0

    # ------------------------------------------------------------------
    def _invoker(self):
        engine = self.engine

        def call(module, bindings):
            self._invocations += 1
            if engine is not None:
                return engine.invoke(module, self.ctx, bindings)
            from repro.modules.interfaces import invoke_via_interface

            return invoke_via_interface(module, self.ctx, bindings)

        return call

    def _query_entry(self, module: Module) -> IndexedModule:
        """The query's index entry — reused when indexed, sketched on
        the fly otherwise (decayed modules are queried, not indexed)."""
        indexed = self.index.entry(module.module_id)
        if indexed is not None:
            return indexed
        return self.index.sketch(
            module, self.examples_by_id.get(module.module_id, [])
        )

    def candidate_ids(self, module_id: str) -> "list[str]":
        """The index's surviving candidates for one query module."""
        module = self.modules_by_id[module_id]
        return self.index.candidates_for_entry(self._query_entry(module))

    # ------------------------------------------------------------------
    def match_module(
        self, module_id: str, accounting: "MatchAccounting | None" = None
    ) -> "list[MatchReport]":
        """Exact §6 reports for one query, candidates restricted by the
        index; sorted exactly like
        :func:`repro.core.matching.find_matches` (equivalents first,
        then by agreement count, then candidate id)."""
        module = self.modules_by_id[module_id]
        examples = self.examples_by_id.get(module_id, [])
        invoker = self._invoker()
        reports: "list[MatchReport]" = []
        for candidate_id in self.candidate_ids(module_id):
            if accounting is not None:
                accounting.candidate_pairs += 1
            candidate = self.modules_by_id.get(candidate_id)
            if candidate is None or not candidate.available:
                continue
            mapping = map_parameters(self.ctx.ontology, module, candidate)
            if mapping is None:
                continue
            if accounting is not None:
                accounting.mapped_pairs += 1
            report = compare_behavior(
                self.ctx, module, examples, candidate, mapping, invoker=invoker
            )
            if report is not None:
                reports.append(report)
        reports.sort(
            key=lambda r: (_ORDER[r.kind.value], -r.n_agreeing, r.candidate_id)
        )
        return reports

    def match_all(self, query_ids: "list[str] | None" = None) -> MatchRun:
        """Match every query module against the indexed catalog.

        Args:
            query_ids: The queries (default: every indexed module —
                the all-pairs catalog sweep).
        """
        if query_ids is None:
            query_ids = self.index.module_ids()
        n_catalog = len(self.index)
        accounting = MatchAccounting(
            n_queries=len(query_ids), n_catalog=n_catalog
        )
        for module_id in query_ids:
            accounting.exhaustive_pairs += n_catalog - (
                1 if module_id in self.index else 0
            )
        before = self._invocations
        matches = {
            module_id: self.match_module(module_id, accounting)
            for module_id in query_ids
        }
        accounting.invocations = self._invocations - before
        return MatchRun(matches=matches, accounting=accounting)


def exhaustive_match_all(
    ctx: ModuleContext,
    queries: "list[Module]",
    examples_by_id: "dict[str, list[DataExample]]",
    catalog: "list[Module] | tuple[Module, ...]",
    engine=None,
) -> MatchRun:
    """The unpruned baseline: every query against every catalog module.

    Same exact comparison, same sort — only the candidate pruning is
    missing.  Used by the exactness property test and the benchmark.
    """
    accounting = MatchAccounting(n_queries=len(queries), n_catalog=len(catalog))
    invocations = 0

    def invoker(module, bindings):
        nonlocal invocations
        invocations += 1
        if engine is not None:
            return engine.invoke(module, ctx, bindings)
        from repro.modules.interfaces import invoke_via_interface

        return invoke_via_interface(module, ctx, bindings)

    matches: "dict[str, list[MatchReport]]" = {}
    for query in queries:
        examples = examples_by_id.get(query.module_id, [])
        reports: "list[MatchReport]" = []
        for candidate in catalog:
            if candidate.module_id == query.module_id:
                continue
            accounting.exhaustive_pairs += 1
            accounting.candidate_pairs += 1
            if not candidate.available:
                continue
            mapping = map_parameters(ctx.ontology, query, candidate)
            if mapping is None:
                continue
            accounting.mapped_pairs += 1
            report = compare_behavior(
                ctx, query, examples, candidate, mapping, invoker=invoker
            )
            if report is not None:
                reports.append(report)
        reports.sort(
            key=lambda r: (_ORDER[r.kind.value], -r.n_agreeing, r.candidate_id)
        )
        matches[query.module_id] = reports
    accounting.invocations = invocations
    return MatchRun(matches=matches, accounting=accounting)


def classification_digest(
    matches: "dict[str, list[MatchReport]]", include_disjoint: bool = False
) -> str:
    """A sha256 witness of a matching result's classifications.

    Hashes the sorted ``(query, candidate, kind, n_agreeing,
    n_examples)`` tuples of every EQUIVALENT and OVERLAPPING report —
    the §6 *match* set that candidate ranking and workflow repair
    consume — so two matching runs agree on the digest iff they found
    exactly the same matches with exactly the same agreement counts.

    DISJOINT reports are excluded by default, deliberately: the
    exhaustive baseline classifies every mappable pair, including the
    overwhelmingly many that agree on nothing, while the index prunes
    most no-agreement pairs before invocation — that asymmetry is the
    entire point of pruning, and it must never extend to actual
    matches.  Pass ``include_disjoint=True`` to witness the complete
    report set instead (meaningful when comparing two exhaustive runs).
    """
    rows = sorted(
        (
            query_id,
            report.candidate_id,
            report.kind.value,
            report.n_agreeing,
            report.n_examples,
        )
        for query_id, reports in matches.items()
        for report in reports
        if include_disjoint or report.kind is not MatchKind.DISJOINT
    )
    document = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(document.encode("utf-8")).hexdigest()
