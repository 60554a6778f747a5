"""The benchmark's three workloads: set-up, one timed pass, output check.

Every workload is single-process and single-threaded.  A workload object
is built from the benchmark seed; :meth:`setup` builds the seed's world
and the reference outputs the passes are checked against, all at run
time in this process.  :meth:`run_pass` runs one pass, timed by the
given :class:`meter.Meter`, and returns a :class:`Pass`; :meth:`check`
compares it with the reference and :meth:`counters` reports the pass's
per-layer counts.

Why each workload exists, what it stresses and what it bypasses is
recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.biodb.universe import default_universe
from repro.campaign import (
    COMPLETE,
    CampaignConfig,
    CampaignJournal,
    CampaignResult,
    CampaignRunner,
    build_world,
    report_to_dict,
)
from repro.core.generation import ExampleGenerator
from repro.engine import EngineConfig, InvocationEngine
from repro.match import (
    CandidateMatcher,
    MatchAccounting,
    SignatureIndex,
    build_synthetic_catalog,
    classification_digest,
    exhaustive_match_all,
)
from repro.match.synth import SyntheticCatalogConfig
from repro.modules.catalog import default_catalog
from repro.ontology import build_mygrid_ontology
from repro.pool.synthesis import default_factory

#: Modules in the synthetic §6 world.  With five examples each, a pass
#: verifies ~8k distinct (candidate, input) keys — about twice the
#: engine's default 4096-entry cache, so the hit path and eviction both
#: run.
SYNTH_MODULES = 1000
#: Queries whose pruned classifications are checked against the
#: exhaustive matcher every pass (seeded sample).
MATCH_SAMPLE = 8
#: Queries per timed segment of a synth-match pass (see meter.py).
QUERY_SEGMENT = 100
#: The campaign id every pass journals under.
CAMPAIGN_ID = "perfbench"


@dataclass
class Pass:
    """One timed pass: its meter (times), operations and outputs."""

    meter: object
    attempted: int
    failed: int
    outputs: object = None
    extra: dict = field(default_factory=dict)


def clear_world_caches() -> None:
    """Drop the process-wide caches the catalog world is built from, so
    each repeated set-up measures a cold build."""
    for cached in (
        default_catalog,
        default_universe,
        default_factory,
        build_mygrid_ontology,
    ):
        cached.cache_clear()


def canonical_reports(reports) -> bytes:
    """The journal's full JSON form of a report list, as bytes."""
    return json.dumps(
        [report_to_dict(report) for report in reports], sort_keys=True
    ).encode("utf-8")


def generation_counters(reports, engine) -> dict:
    examples = sum(report.n_examples for report in reports)
    combinations = sum(
        report.n_examples
        + report.invalid_combinations
        + report.unavailable_combinations
        + len(report.quarantined)
        for report in reports
    )
    counters = {
        "core.generate.combinations": combinations,
        "core.generate.examples_per_combination": (
            examples / combinations if combinations else 0.0
        ),
    }
    counters.update(cache_counters(engine))
    return counters


def cache_counters(engine) -> dict:
    cache = engine.stats()["cache"]
    return {
        "engine.cache.hit_ratio": cache["hit_rate"],
        "engine.cache.evictions": cache["evictions"],
    }


# ----------------------------------------------------------------------
class CatalogGenerate:
    """§3 generation of the 252-module paper catalog, one fresh engine
    per pass; an operation is one ``ExampleGenerator.generate`` call."""

    name = "catalog-generate"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        # The campaign's engine stack (4096-entry cache, retry, breaker,
        # conformance; no faults, no latency), so this workload and
        # catalog-campaign do the same generation work.
        self.engine_config = CampaignConfig(seed=seed).engine_config()

    def setup(self) -> None:
        clear_world_caches()
        self.ctx, self.catalog, self.pool = build_world(self.seed)
        # The reference runs on a bare engine: no cache and no
        # resilience layers, so a defect in any of them shows as a
        # mismatch instead of being copied into the reference.
        reference = ExampleGenerator(
            self.ctx, self.pool, seed=self.seed,
            engine=InvocationEngine(EngineConfig()),
        )
        self.reference_reports = [reference.generate(m) for m in self.catalog]
        self.reference = canonical_reports(self.reference_reports)

    def run_pass(self, meter) -> Pass:
        reports, failed = [], 0
        clock = time.perf_counter
        with meter.timed():
            engine = InvocationEngine(self.engine_config)
            generator = ExampleGenerator(
                self.ctx, self.pool, seed=self.seed, engine=engine
            )
            for module in self.catalog:
                began = clock()
                try:
                    reports.append(generator.generate(module))
                except Exception:  # counted, never fatal to the run
                    failed += 1
                meter.op(clock() - began)
        return Pass(meter, len(self.catalog), failed,
                    outputs=reports, extra={"engine": engine})

    def check(self, result: Pass) -> bool:
        return canonical_reports(result.outputs) == self.reference

    def counters(self, result: Pass) -> dict:
        return generation_counters(result.outputs, result.extra["engine"])


# ----------------------------------------------------------------------
class _StampedJournal(CampaignJournal):
    """A journal that notes when each module's commit returned, so a
    campaign's per-module latency is the gap between commits."""

    def __init__(self, path) -> None:
        super().__init__(path)
        self.stamps: "list[float]" = []

    def record_done(self, campaign_id, report) -> None:
        super().record_done(campaign_id, report)
        self.stamps.append(time.perf_counter())


class CatalogCampaign(CatalogGenerate):
    """The same catalog through a serial ``CampaignRunner.run`` (which
    finalizes) into a fresh SQLite journal per pass; an operation is one
    module generated and committed.

    Flush policy, identical for every commit measured: the journal's own
    (WAL, ``synchronous = NORMAL``, one committed transaction per
    module).  Closing the journal, which checkpoints the WAL, is timed.
    """

    name = "catalog-campaign"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.config = CampaignConfig(seed=seed)
        self.path = workdir / f"campaign-{os.getpid()}.sqlite"

    def setup(self) -> None:
        super().setup()
        self.reference_digest = CampaignResult(
            campaign_id="reference", seed=self.seed, status=COMPLETE,
            reports={r.module_id: r for r in self.reference_reports},
        ).digest()

    def _remove_journal(self) -> None:
        for suffix in ("", "-wal", "-shm"):
            Path(f"{self.path}{suffix}").unlink(missing_ok=True)

    def run_pass(self, meter) -> Pass:
        self._remove_journal()
        result = None
        with meter.timed():
            journal = _StampedJournal(self.path)
            runner = CampaignRunner(
                self.ctx, self.catalog, self.pool, journal, self.config
            )
            began = time.perf_counter()
            try:
                result = runner.run(CAMPAIGN_ID)
            except Exception:  # counted below, never fatal to the run
                pass
            journal.close()
            for before, after in zip([began] + journal.stamps, journal.stamps):
                meter.op(after - before)
        planned = len(self.catalog)
        failed = 0 if result is not None else planned - len(journal.stamps)
        size = self.path.stat().st_size
        self._remove_journal()
        return Pass(meter, planned, failed, outputs=result,
                    extra={"engine": runner.engine, "db_bytes": size})

    def check(self, result: Pass) -> bool:
        outcome = result.outputs
        return (
            outcome is not None
            and outcome.status == COMPLETE
            and not outcome.skipped
            and len(outcome.reports) == len(self.catalog)
            and outcome.digest() == self.reference_digest
        )

    def counters(self, result: Pass) -> dict:
        reports = list(result.outputs.reports.values()) if result.outputs else []
        counters = generation_counters(reports, result.extra["engine"])
        counters["campaign.journal.bytes_per_module"] = (
            result.extra["db_bytes"] / len(self.catalog)
        )
        return counters


# ----------------------------------------------------------------------
class SynthMatch:
    """Index-pruned §6 matching over a seeded synthetic world: build the
    signature index, then match every module through an engine with the
    default 4096-entry cache; an operation is one module indexed and
    matched (its latency is the ``match_module`` query)."""

    name = "synth-match"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        world = build_synthetic_catalog(
            SyntheticCatalogConfig(seed=self.seed, n_modules=SYNTH_MODULES)
        )
        self.world = world
        self.modules_by_id = world.modules_by_id
        ids = sorted(self.modules_by_id)
        self.sample = sorted(random.Random(self.seed).sample(ids, MATCH_SAMPLE))
        exhaustive = exhaustive_match_all(
            world.ctx,
            [self.modules_by_id[q] for q in self.sample],
            world.examples_by_id,
            world.modules,
        )
        self.reference_digest = classification_digest(exhaustive.matches)
        # Every pass must also classify the whole catalog as the first
        # (warm-up) pass did.
        self.first_digest = None

    def run_pass(self, meter) -> Pass:
        world, n = self.world, len(self.world.modules)
        matches, failed = {}, set()
        clock = time.perf_counter
        with meter.timed():
            index = SignatureIndex()
            for module in world.modules:
                try:
                    index.add_module(
                        module, world.examples_by_id[module.module_id]
                    )
                except Exception:  # counted, never fatal to the run
                    failed.add(module.module_id)
            meter.split()
            engine = InvocationEngine(EngineConfig(cache_size=4096))
            matcher = CandidateMatcher(
                world.ctx, self.modules_by_id, world.examples_by_id, index,
                engine=engine,
            )
            accounting = MatchAccounting(
                n_queries=n, n_catalog=n, exhaustive_pairs=n * (n - 1)
            )
            for position, module_id in enumerate(index.module_ids(), 1):
                began = clock()
                try:
                    matches[module_id] = matcher.match_module(module_id, accounting)
                except Exception:  # counted, never fatal to the run
                    failed.add(module_id)
                meter.op(clock() - began)
                if position % QUERY_SEGMENT == 0:
                    meter.split()
        return Pass(meter, n, len(failed), outputs=matches,
                    extra={"engine": engine, "accounting": accounting})

    def check(self, result: Pass) -> bool:
        matches = result.outputs
        if any(q not in matches for q in self.sample):
            return False
        sample_digest = classification_digest({q: matches[q] for q in self.sample})
        full_digest = classification_digest(matches)
        if self.first_digest is None:
            self.first_digest = full_digest
        return (
            sample_digest == self.reference_digest
            and full_digest == self.first_digest
        )

    def counters(self, result: Pass) -> dict:
        accounting = result.extra["accounting"]
        cache = result.extra["engine"].stats()["cache"]
        counters = {
            "engine.cache.hit_ratio": cache["hit_rate"],
            "engine.cache.evictions": cache["evictions"],
            "match.index.candidates_per_query": (
                accounting.candidate_pairs / accounting.n_queries
            ),
            "match.pruning_ratio": accounting.pruning_ratio,
            "match.mapped_per_candidate": (
                accounting.mapped_pairs / accounting.candidate_pairs
                if accounting.candidate_pairs else 0.0
            ),
            "match.verify_invocations": (
                cache["hits"] + cache["negative_hits"] + cache["misses"]
            ),
        }
        return counters


WORKLOADS = {
    workload.name: workload
    for workload in (CatalogGenerate, CatalogCampaign, SynthMatch)
}


def trace_targets(recorder) -> None:
    """Register, with ``recorder``, every public function the per-layer
    breakdown times — at the name each caller looks it up by."""
    import repro.campaign.journal as journal_module
    import repro.engine.conformance as conformance_module
    import repro.engine.invoker as invoker_module
    import repro.match.index as index_module
    import repro.match.matcher as matcher_module
    import repro.modules.interfaces as interfaces_module
    from repro.ontology.model import Ontology
    from repro.pool.pool import InstancePool

    target = recorder.target
    target(Ontology, "partitions_of", "ontology.partitions_of")
    target(InstancePool, "get_instance", "pool.get_instance")
    target(ExampleGenerator, "generate", "core.generate")
    target(matcher_module, "map_parameters", "core.matching.map_parameters")
    target(matcher_module, "compare_behavior", "core.matching.compare_behavior")
    target(InvocationEngine, "__init__", "engine.init")
    target(InvocationEngine, "invoke", "engine.invoke")
    target(invoker_module, "invoke_via_interface", "modules.invoke_via_interface")
    for name in ("bindings_to_wire", "bindings_from_wire", "value_from_wire"):
        target(interfaces_module, name, f"modules.wire.{name}")
    target(conformance_module, "bindings_to_wire", "modules.wire.bindings_to_wire")
    target(journal_module, "value_from_wire", "modules.wire.value_from_wire")
    target(CampaignJournal, "__init__", "campaign.journal.open")
    target(CampaignJournal, "record_done", "campaign.journal.record_done")
    target(CampaignRunner, "run", "campaign.run")
    target(CampaignRunner, "finalize", "campaign.finalize")
    for name in ("report_to_dict", "report_from_dict"):
        target(journal_module, name, f"campaign.serialize.{name}")
    for name in ("compute_signature", "behavior_tokens", "input_tokens"):
        target(index_module, name, f"match.signature.{name}")
    target(SignatureIndex, "add_module", "match.index.add_module")
    target(SignatureIndex, "candidates_for_entry", "match.index.candidates")
    target(CandidateMatcher, "match_module", "match.match_module")
