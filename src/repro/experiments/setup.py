"""Shared experiment fixture: everything §4–§6 need, built once per seed.

The construction order mirrors the paper's §4.1 methodology:

1. build the universe, ontology and the 252-module catalog;
2. build the annotated instance pool — curator-solicited realizations
   first (they take precedence in ``getInstance``), then values harvested
   from a provenance corpus of enacted workflows;
3. run the generation heuristic over all modules and evaluate;
4. build the 72 decayed modules, record their pre-decay data examples,
   generate the myExperiment-style repository with historical traces,
   fire the decay event, and match/repair.

Heavy pieces (repository, matching) are built lazily on first access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.core.generation import ExampleGenerator, GenerationReport
from repro.core.matching import MatchReport, find_matches
from repro.engine import (
    EngineConfig,
    FaultPlan,
    InvocationEngine,
    ModuleHealthRegistry,
    RetryPolicy,
    Telemetry,
    WatchdogPolicy,
)
from repro.core.metrics import ModuleEvaluation, evaluate_module
from repro.core.repair import RepairResult, WorkflowRepairer
from repro.match.index import SignatureIndex
from repro.match.matcher import CandidateMatcher, MatchRun
from repro.modules.catalog.decayed import DECAYED_PROVIDERS, build_decayed_modules
from repro.modules.catalog.factory import build_catalog, default_context
from repro.modules.model import Module, ModuleContext
from repro.pool.pool import InstancePool
from repro.pool.synthesis import RealizationFactory
from repro.registry.registry import ModuleRegistry
from repro.workflow.decay import broken_workflows, restore_providers, shut_down_providers
from repro.workflow.enactment import Enactor
from repro.workflow.provenance import ProvenanceTrace
from repro.workflow.repository import Repository, RepositoryBuilder, RepositoryConfig


@dataclass
class ExperimentSetup:
    """All artefacts of the reproduction, for one seed.

    ``generator.engine`` (:attr:`engine`) carries every generation and
    §6 comparison call; ``enactment_engine``, cached and fault-free,
    every workflow enactment: the provenance-corpus harvest, the
    repository build, the historical traces and repair validation.
    """

    seed: int
    ctx: ModuleContext
    catalog: list[Module]
    pool: InstancePool
    n_harvested: int
    generator: ExampleGenerator
    reports: dict[str, GenerationReport]
    evaluations: dict[str, ModuleEvaluation]
    registry: ModuleRegistry
    enactment_engine: InvocationEngine
    decayed: list[Module] = field(default_factory=list)
    decayed_examples: dict[str, list] = field(default_factory=dict)
    _repository: Repository | None = None
    _historical: dict[str, ProvenanceTrace] | None = None
    _matches: dict[str, list[MatchReport]] | None = None
    _repairs: list[RepairResult] | None = None
    _match_index: SignatureIndex | None = None
    _indexed_matches: MatchRun | None = None

    # ------------------------------------------------------------------
    @property
    def modules_by_id(self) -> dict[str, Module]:
        return {m.module_id: m for m in self.catalog + self.decayed}

    @property
    def examples_by_id(self) -> dict[str, list]:
        """Every module's data examples: the catalog's generated ones and
        the decayed modules' pre-decay ones."""
        examples = {
            module_id: report.examples for module_id, report in self.reports.items()
        }
        examples.update(self.decayed_examples)
        return examples

    @property
    def engine(self) -> InvocationEngine:
        """The invocation engine every generation and §6 comparison
        call flows through."""
        return self.generator.engine

    @property
    def telemetry(self) -> Telemetry:
        """The engine's accounting (the report's invocation-cost data)."""
        return self.generator.engine.telemetry

    @property
    def health(self) -> ModuleHealthRegistry:
        """Observed per-module health of every generation call."""
        return self.generator.engine.health

    @property
    def repository(self) -> Repository:
        """The 3000-workflow repository (built on first access)."""
        if self._repository is None:
            self._build_repository_and_decay()
        return self._repository

    @property
    def historical_traces(self) -> dict[str, ProvenanceTrace]:
        """Pre-decay traces of the broken workflows."""
        if self._historical is None:
            self._build_repository_and_decay()
        return self._historical

    @property
    def matches(self) -> dict[str, "list[MatchReport]"]:
        """Per decayed module, its sorted §6 match reports."""
        if self._matches is None:
            self.repository  # ensure decay happened
            self._matches = {
                m.module_id: find_matches(
                    self.ctx, m, self.decayed_examples[m.module_id], self.catalog,
                    invoker=self.engine,
                )
                for m in self.decayed
            }
        return self._matches

    @property
    def match_index(self) -> SignatureIndex:
        """The signature index over the available catalog, sketched from
        the generated data examples (built on first access)."""
        if self._match_index is None:
            index = SignatureIndex()
            for module in self.catalog:
                index.add_module(
                    module, self.reports[module.module_id].examples
                )
            self._match_index = index
        return self._match_index

    @property
    def indexed_matches(self) -> MatchRun:
        """Index-pruned §6 matches of the decayed modules — the same
        classifications as :attr:`matches` (the exactness property test
        pins this), at a fraction of the invocations."""
        if self._indexed_matches is None:
            self.repository  # ensure decay happened
            matcher = CandidateMatcher(
                self.ctx,
                self.modules_by_id,
                self.decayed_examples,
                self.match_index,
                engine=self.engine,
            )
            self._indexed_matches = matcher.match_all(
                [m.module_id for m in self.decayed]
            )
        return self._indexed_matches

    @property
    def repairs(self) -> "list[RepairResult]":
        """Repair results over every broken workflow."""
        if self._repairs is None:
            repairer = WorkflowRepairer(
                self.ctx, self.modules_by_id, self.matches, self.pool,
                self.examples_by_id, self.enactment_engine,
            )
            broken = broken_workflows(self.repository.workflows, self.modules_by_id)
            self._repairs = repairer.repair_all(broken, self.historical_traces)
        return self._repairs

    def broken(self) -> list:
        """The broken workflows of the repository."""
        return broken_workflows(self.repository.workflows, self.modules_by_id)

    # ------------------------------------------------------------------
    def _build_repository_and_decay(self) -> None:
        builder = RepositoryBuilder(
            self.ctx, self.catalog, self.decayed, self.pool,
            RepositoryConfig(seed=self.seed), self.enactment_engine,
        )
        repository = builder.build()
        by_id = self.modules_by_id
        enactor = Enactor(self.ctx, by_id, self.pool, self.enactment_engine)
        # Pre-decay data examples of the soon-to-decay modules (§6: they
        # can only come from provenance recorded while still invocable).
        self.decayed_examples = {
            m.module_id: self.generator.generate(m).examples for m in self.decayed
        }
        shut_down_providers(self.decayed, DECAYED_PROVIDERS)
        broken = broken_workflows(repository.workflows, by_id)
        restore_providers(self.decayed, DECAYED_PROVIDERS)
        historical = {w.workflow_id: enactor.try_enact(w) for w in broken}
        shut_down_providers(self.decayed, DECAYED_PROVIDERS)
        self._repository = repository
        self._historical = historical


def build_setup(
    seed: int = 2014,
    corpus_size: int = 150,
    engine_config: "EngineConfig | None" = None,
) -> ExperimentSetup:
    """Build the experiment fixture for ``seed``.

    Args:
        seed: Master seed (universe, repository, sampling).
        corpus_size: Number of workflows enacted to harvest the
            provenance part of the instance pool.
        engine_config: Invocation-engine knobs; the default enables the
            memoizing cache (pure win: module behaviors are
            deterministic) and keeps the scheduler serial.  The CI
            fault-matrix job sets ``REPRO_FAULT_RATE`` (and optionally
            ``REPRO_FAULT_SEED``) to run the whole suite under seeded
            transient-failure weather with a retry policy riding it out
            — every paper-facing number must survive unchanged.
    """
    ctx = default_context(seed)
    catalog = build_catalog()
    factory = RealizationFactory(ctx.universe)
    pool = InstancePool.bootstrap(factory, ctx.ontology)

    # Harvest a provenance corpus of healthy workflows (§4.1).  Curated
    # bootstrap values were added first, so getInstance keeps preferring
    # them; the harvest genuinely enlarges the pool.
    by_id = {m.module_id: m for m in catalog}
    # Enactment re-runs the same module on the same values across
    # workflows (a popular utility sits in hundreds of them): the seed-2014
    # corpus, repository, historical traces and repairs make ~6.9k calls
    # on 757 distinct inputs.
    enactment_engine = InvocationEngine(EngineConfig(cache_size=4096))
    corpus_builder = RepositoryBuilder(
        ctx, catalog, [], pool,
        RepositoryConfig(
            seed=seed + 1, n_healthy=corpus_size, n_equivalent_full=0,
            n_equivalent_partial=0, n_overlap_safe=0, n_unrepairable=0,
        ),
        enactment_engine,
    )
    corpus = corpus_builder.build()
    enactor = Enactor(ctx, by_id, pool, enactment_engine)
    traces = [enactor.try_enact(w) for w in corpus.workflows]
    n_harvested = pool.harvest(traces)

    if engine_config is None:
        engine_config = _default_engine_config(seed)
    engine = InvocationEngine(engine_config)
    generator = ExampleGenerator(ctx, pool, engine=engine)
    reports = generator.generate_many(catalog)
    evaluations = {
        module.module_id: evaluate_module(
            ctx, module, reports[module.module_id].examples
        )
        for module in catalog
    }
    registry = ModuleRegistry(ctx.ontology)
    for module in catalog:
        registry.register(module)
        registry.attach_examples(module.module_id, reports[module.module_id].examples)
    decayed = build_decayed_modules()
    return ExperimentSetup(
        seed=seed,
        ctx=ctx,
        catalog=list(catalog),
        pool=pool,
        n_harvested=n_harvested,
        generator=generator,
        reports=reports,
        evaluations=evaluations,
        registry=registry,
        enactment_engine=enactment_engine,
        decayed=decayed,
    )


def _default_engine_config(seed: int) -> EngineConfig:
    """The default engine stack, honoring the CI weather environment.

    ``REPRO_FAULT_RATE`` > 0 injects seeded transient failures under a
    generous fast retry policy: every call still succeeds eventually, so
    the deterministic reports are unchanged while the whole resilience
    stack is exercised on every invocation of the tier-1 suite.

    ``REPRO_STALL_MS`` > 0 additionally stalls every call by that fixed
    delay and ``REPRO_WATCHDOG_BUDGET`` arms the watchdog (seconds; it
    also arms on its own).  The CI hang matrix sets a stall well below
    the budget: every call crosses the watchdog's worker thread, no call
    times out, and the paper-facing reports must again survive
    unchanged.
    """
    import os

    rate = float(os.environ.get("REPRO_FAULT_RATE", "0") or 0)
    stall_ms = float(os.environ.get("REPRO_STALL_MS", "0") or 0)
    budget = float(os.environ.get("REPRO_WATCHDOG_BUDGET", "0") or 0)
    watchdog = WatchdogPolicy(budget=budget) if budget > 0 else None
    if rate <= 0 and stall_ms <= 0:
        return EngineConfig(cache_size=4096, watchdog=watchdog)
    fault_seed = int(os.environ.get("REPRO_FAULT_SEED", str(seed)))
    return EngineConfig(
        cache_size=4096,
        retry=RetryPolicy(
            seed=fault_seed, max_attempts=8, base_delay=0.0005, jitter=0.1
        ),
        fault_plan=FaultPlan(
            seed=fault_seed, transient_failure_rate=rate, stall_ms=stall_ms
        ),
        watchdog=watchdog,
    )


@lru_cache(maxsize=2)
def default_setup(seed: int = 2014) -> ExperimentSetup:
    """The cached default fixture (shared by experiments, tests, benches)."""
    return build_setup(seed)
