"""A myExperiment-style workflow repository (§6).

The repository reproduces the population structure of the paper's repair
experiment: ~3000 workflows of which roughly half break when the decayed
providers shut down.  Popular KEGG-style utilities appear in many
workflows, which is why substituting just 16 modules repairs hundreds of
them.

The generator is seeded and *validated*: every workflow it emits enacted
successfully before the decay event (people only published workflows
that worked).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.engine.invoker import DirectInvoker, Invoker
from repro.modules.catalog.decayed import (
    CONTEXT_SAFE_OVERLAP_IDS,
    EQUIVALENT_TWIN_BASES,
)
from repro.modules.model import Module, ModuleContext
from repro.pool.pool import InstancePool
from repro.workflow.enactment import Enactor
from repro.workflow.model import DataLink, Step, Workflow, link_is_valid


@dataclass
class RepositoryConfig:
    """Population sizes of the generated repository.

    The defaults reproduce the §6 numbers: 321 workflows repairable via
    the 16 equivalence twins (248 fully + 73 partly), 13 via context-safe
    overlapping substitutes, ~1500 broken overall, ~3000 total.
    """

    seed: int = 2014
    n_healthy: int = 1480
    n_equivalent_full: int = 248
    n_equivalent_partial: int = 73
    n_overlap_safe: int = 13
    n_unrepairable: int = 1186


@dataclass
class Repository:
    """The generated repository plus its (hidden) category labels.

    ``category`` maps workflow id to one of ``healthy``,
    ``equivalent-full``, ``equivalent-partial``, ``overlap-safe`` and
    ``unrepairable`` — ground truth used only by tests and reports, never
    by the repair algorithm.
    """

    workflows: list[Workflow] = field(default_factory=list)
    category: dict[str, str] = field(default_factory=dict)

    def of_category(self, name: str) -> list[Workflow]:
        return [w for w in self.workflows if self.category[w.workflow_id] == name]


#: Producers that feed each Figure 7 narrow retrieval in the 13
#: context-safe workflows: (narrow decayed id, upstream available id,
#: upstream output name, downstream available id or None).
_OVERLAP_SAFE_CHAINS: tuple[tuple[str, str, str, str | None], ...] = (
    ("old.get_protein_sequence", "map.kegg_to_uniprot", "mapped", "an.blastp"),
    ("old.get_protein_sequence", "map.pdb_to_uniprot", "mapped", "xf.seq_to_fasta"),
    ("old.get_protein_sequence", "map.embl_to_uniprot", "mapped", "an.digest_protein"),
    ("old.get_pir_sequence", "map.uniprot_to_pir", "mapped", "an.protein_stats"),
    ("old.get_pir_sequence", "map.uniprot_to_pir", "mapped", "an.motif_scan"),
    ("old.get_genbank_dna", "map.embl_to_genbank", "mapped", "an.translate_dna"),
    ("old.get_genbank_dna", "map.embl_to_genbank", "mapped", "an.blastn"),
    ("old.get_refseq_dna", "map.genbank_to_refseq", "mapped", "an.transcribe_dna"),
    ("old.get_refseq_dna", "map.genbank_to_refseq", "mapped", "an.find_orfs"),
    ("old.get_entrez_dna", "map.uniprot_to_entrez", "mapped", "an.reverse_complement"),
    ("old.get_entrez_dna", "map.kegg_to_entrez", "mapped", "an.dna_stats"),
    ("old.get_ensembl_dna", "map.uniprot_to_ensembl", "mapped", "an.translate_dna"),
    ("old.get_ensembl_dna", "map.kegg_to_ensembl", "mapped", "an.blastn"),
)


class RepositoryBuilder:
    """Builds a seeded, enactment-validated repository; its enactor calls
    every module through ``invoker``."""

    def __init__(
        self,
        ctx: ModuleContext,
        available: "list[Module] | tuple[Module, ...]",
        decayed: "list[Module] | tuple[Module, ...]",
        pool: InstancePool,
        config: RepositoryConfig | None = None,
        invoker: Invoker = DirectInvoker(),
    ) -> None:
        self.ctx = ctx
        self.config = config or RepositoryConfig()
        self.available = list(available)
        self.decayed = list(decayed)
        self.by_id = {m.module_id: m for m in self.available + self.decayed}
        self.pool = pool
        self.enactor = Enactor(ctx, self.by_id, pool, invoker)
        self._rng = random.Random(self.config.seed)
        self._counter = 0
        self._consumers: "dict[tuple, list[tuple[Module, str]]]" = {}
        self._orphan_ids = [
            m.module_id for m in self.decayed if m.module_id.startswith("old.legacy_stat_")
        ] + ["old.get_homologous", "old.search_protein_top3", "old.identify_report",
             "old.translate_six_frames"]
        self._twin_ids = [
            f"old.{base.split('.', 1)[1]}_s" for base in EQUIVALENT_TWIN_BASES
        ]

    # ------------------------------------------------------------------
    def build(self) -> Repository:
        """Generate and validate the full repository."""
        repository = Repository()
        self._add_overlap_safe(repository)
        self._add_twin_workflows(repository, self.config.n_equivalent_full, "equivalent-full",
                                 with_orphan=False)
        self._add_twin_workflows(repository, self.config.n_equivalent_partial,
                                 "equivalent-partial", with_orphan=True)
        self._add_unrepairable(repository, self.config.n_unrepairable)
        self._add_healthy(repository, self.config.n_healthy)
        return repository

    # ------------------------------------------------------------------
    def _next_id(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}-{self._counter:05d}"

    def _validate(self, workflow: Workflow) -> bool:
        """True when the workflow enacts successfully (pre-decay)."""
        return self.enactor.try_enact(workflow).succeeded

    def _emit(self, repository: Repository, workflow: Workflow, category: str) -> bool:
        if not self._validate(workflow):
            return False
        repository.workflows.append(workflow)
        repository.category[workflow.workflow_id] = category
        return True

    # ------------------------------------------------------------------
    def _random_chain(self, first: Module, max_extra: int = 2) -> Workflow:
        """A chain starting at ``first``, extended downstream with
        available modules whose inputs accept the previous output."""
        steps = [Step("s1", first.module_id)]
        links: list[DataLink] = []
        current = first
        for extra in range(self._rng.randint(0, max_extra)):
            output = current.outputs[0]
            candidates = self._consumers_of(current)
            if not candidates:
                break
            module, input_name = self._rng.choice(candidates)
            step_id = f"s{len(steps) + 1}"
            links.append(DataLink(steps[-1].step_id, output.name, step_id, input_name))
            steps.append(Step(step_id, module.module_id))
            current = module
        identifier = self._next_id("wf")
        return Workflow(identifier, f"workflow {identifier}", tuple(steps), tuple(links))

    def _consumers_of(self, producer: Module) -> "list[tuple[Module, str]]":
        """Every ``(module, input name)`` the producer's first output may
        feed, in :attr:`available` order, each module at its first
        accepting input.  Found once per output (structural, concept):
        the only part of the producer a link check reads."""
        output = producer.outputs[0]
        key = (output.structural, output.concept)
        consumers = self._consumers.get(key)
        if consumers is None:
            consumers = self._consumers[key] = []
            for module in self.available:
                for parameter in module.inputs:
                    if link_is_valid(self.ctx.ontology, producer, output.name, module,
                                     parameter.name):
                        consumers.append((module, parameter.name))
                        break
        return consumers

    def _add_healthy(self, repository: Repository, count: int) -> None:
        attempts = 0
        healthy = sum(1 for c in repository.category.values() if c == "healthy")
        while healthy < count:
            attempts += 1
            if attempts > count * 20:
                raise RuntimeError("cannot build enough healthy workflows")
            first = self._rng.choice(self.available)
            if self._emit(repository, self._random_chain(first), "healthy"):
                healthy += 1

    def _add_twin_workflows(
        self, repository: Repository, count: int, category: str, with_orphan: bool
    ) -> None:
        emitted = 0
        attempts = 0
        while emitted < count:
            attempts += 1
            if attempts > count * 20:
                raise RuntimeError(f"cannot build enough {category} workflows")
            # Popular twins appear in proportionally more workflows.
            twin_id = self._rng.choice(
                [t for t in self._twin_ids for _ in range(self.by_id[t].popularity)]
            )
            workflow = self._random_chain(self.by_id[twin_id])
            if with_orphan:
                orphan_id = self._rng.choice(self._orphan_ids)
                steps = workflow.steps + (Step("orphan", orphan_id),)
                workflow = Workflow(workflow.workflow_id, workflow.name, steps,
                                    workflow.links)
            if self._emit(repository, workflow, category):
                emitted += 1

    def _add_overlap_safe(self, repository: Repository) -> None:
        for index in range(self.config.n_overlap_safe):
            narrow_id, producer_id, output_name, consumer_id = _OVERLAP_SAFE_CHAINS[
                index % len(_OVERLAP_SAFE_CHAINS)
            ]
            narrow = self.by_id[narrow_id]
            steps = [Step("s1", producer_id), Step("s2", narrow_id)]
            links = [DataLink("s1", output_name, "s2", narrow.inputs[0].name)]
            if consumer_id is not None:
                consumer = self.by_id[consumer_id]
                steps.append(Step("s3", consumer_id))
                links.append(
                    DataLink("s2", narrow.outputs[0].name, "s3",
                             consumer.inputs[0].name)
                )
            identifier = self._next_id("wf")
            workflow = Workflow(identifier, f"workflow {identifier}", tuple(steps),
                                tuple(links))
            if not self._emit(repository, workflow, "overlap-safe"):
                raise RuntimeError(f"overlap-safe chain {narrow_id} failed to enact")

    def _add_unrepairable(self, repository: Repository, count: int) -> None:
        legacy_ids = [
            m.module_id
            for m in self.decayed
            if m.module_id not in set(self._twin_ids)
            and m.module_id not in set(CONTEXT_SAFE_OVERLAP_IDS)
            and m.module_id not in set(self._orphan_ids)
        ]
        emitted = 0
        attempts = 0
        while emitted < count:
            attempts += 1
            if attempts > count * 20:
                raise RuntimeError("cannot build enough unrepairable workflows")
            kind = self._rng.random()
            if kind < 0.6:
                # A workflow around an orphan module.
                first = self.by_id[self._rng.choice(self._orphan_ids)]
                workflow = self._random_chain(first, max_extra=1)
            else:
                # A legacy-variant module used with a free (parent-domain)
                # input: values from both partitions flow in, so the
                # overlapping substitute is NOT context-safe.
                first = self.by_id[self._rng.choice(legacy_ids)]
                workflow = self._random_chain(first, max_extra=1)
            if self._emit(repository, workflow, "unrepairable"):
                emitted += 1
