"""A seeded synthetic myExperiment-style catalog and workflow repository.

The paper's catalog has 252 modules — enough to validate §6 matching,
far too small to exercise *repository-scale* candidate pruning.  This
module generates catalogs of arbitrary size with known ground truth:

* Modules come in **behavior families**.  Within a family, members are
  exact *equivalents* (same function, possibly renamed parameters),
  *relaxed* twins (annotated with a strictly-subsuming concept — the
  Figure 7 ``GetBiologicalSequence`` case, capped at OVERLAPPING), or
  *variants* (agreeing on ~2/3 of the input domain — genuinely
  OVERLAPPING).  Across families, behavior is disjoint.
* Every family draws its example inputs from one small shared payload
  pool, with each member sampling more than half of it — so any two
  members of a family share at least one example input by pigeonhole,
  and agreeing pairs share behavior tokens.  This mirrors the real
  catalog, whose examples come from a shared curated instance pool.
* All families share one small concept set (three identifier leaves
  under one parent), deliberately: parameter mapping alone cannot
  separate families, so exhaustive §6 matching is genuinely quadratic
  in invocations and candidate pruning does real work.
* Workflows are seeded chains over the catalog (valid data links
  only), and decay is simulated by shutting down a seeded fraction of
  providers — the paper's decay model at repository scale.

Everything is a pure function of :class:`SyntheticCatalogConfig`: the
same config always yields byte-identical modules, examples, workflows
and decay — the determinism the property tests and the journaled index
builds both rely on.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro.core.examples import Binding, DataExample
from repro.modules.behavior import BehaviorSpec
from repro.modules.model import (
    Category,
    InterfaceKind,
    Module,
    ModuleContext,
    Parameter,
)
from repro.ontology.concept import Concept
from repro.ontology.model import Ontology
from repro.values import STRING, TypedValue, string_value
from repro.workflow.model import DataLink, Step, Workflow, link_is_valid

#: The shared concept set every family annotates with: three realizable
#: identifier leaves under one covered parent.  Small on purpose — see
#: the module docstring.
PARENT_CONCEPT = "SynthIdentifier"
LEAF_CONCEPTS = ("SynthGeneId", "SynthProteinId", "SynthCompoundId")

#: Member roles, cycled within each family after the base module.
_ROLE_CYCLE = ("equivalent", "renamed", "variant", "equivalent", "relaxed", "variant")

#: Members per behavior family (the last family may be smaller).
FAMILY_SIZE = 8

#: Provider names modules are spread over (decay shuts providers down,
#: not individual modules).
N_PROVIDERS = 20


def synthetic_ontology() -> Ontology:
    """The tiny annotation ontology of the synthetic world."""
    concepts = [
        Concept(name=PARENT_CONCEPT, covered_by_children=True,
                description="any synthetic identifier"),
    ]
    concepts += [
        Concept(name=leaf, parents=(PARENT_CONCEPT,))
        for leaf in LEAF_CONCEPTS
    ]
    return Ontology(concepts, name="synth")


class SyntheticPool:
    """A minimal instance pool for enacting synthetic workflows.

    Duck-types the single method the enactor consumes
    (:meth:`get_instance`), handing out one deterministic value per
    partition — synthetic behaviors are total over strings, so one
    representative per concept suffices to enact any chain.
    """

    def get_instance(self, partition: str, structural) -> "TypedValue | None":
        return string_value(f"synthpool:{partition}", STRING, partition)


@dataclass(frozen=True)
class SyntheticCatalogConfig:
    """Shape of one synthetic world.

    Attributes:
        seed: Master seed; every derived choice is keyed off it.
        n_modules: Catalog size.
        pool_size: Payloads in each family's shared input pool.
        examples_per_module: Example inputs each module samples from
            its family pool; must exceed ``pool_size / 2`` so any two
            family members share an input by pigeonhole.
        n_workflows: Seeded workflow chains in the repository.
        chain_min / chain_max: Chain length bounds.
    """

    seed: int = 2014
    n_modules: int = 200
    pool_size: int = 8
    examples_per_module: int = 5
    n_workflows: int = 60
    chain_min: int = 2
    chain_max: int = 4

    def __post_init__(self) -> None:
        if self.n_modules <= 0:
            raise ValueError("n_modules must be positive")
        if not 0 < self.examples_per_module <= self.pool_size:
            raise ValueError(
                "examples_per_module must be in (0, pool_size] "
                f"(got {self.examples_per_module} of {self.pool_size})"
            )
        if 2 * self.examples_per_module <= self.pool_size:
            raise ValueError(
                "examples_per_module must exceed pool_size/2 so family "
                "members overlap on at least one example input"
            )
        if self.chain_min < 1 or self.chain_max < self.chain_min:
            raise ValueError("need 1 <= chain_min <= chain_max")


@dataclass
class SyntheticCatalog:
    """One generated world: catalog, examples, ground truth, workflows."""

    config: SyntheticCatalogConfig
    ctx: ModuleContext
    modules: "list[Module]"
    examples_by_id: "dict[str, list[DataExample]]"
    family_of: "dict[str, int]"
    role_of: "dict[str, str]"
    workflows: "list[Workflow]"
    pool: SyntheticPool = field(default_factory=SyntheticPool)

    @property
    def modules_by_id(self) -> "dict[str, Module]":
        return {m.module_id: m for m in self.modules}

    def family_members(self, module_id: str) -> "list[str]":
        """Ids of the other members of ``module_id``'s family."""
        family = self.family_of[module_id]
        return sorted(
            other
            for other, f in self.family_of.items()
            if f == family and other != module_id
        )


# ----------------------------------------------------------------------
# Behavior construction
# ----------------------------------------------------------------------
def _family_hex(seed: int, family: int, payload: str) -> str:
    """The family function's core: a stable digest of (family, input)."""
    return hashlib.blake2b(
        f"synth-{seed}-f{family}|{payload}".encode(), digest_size=8
    ).hexdigest()


def _make_transform(seed: int, family: int, variant: int, out_name: str, out_concept: str):
    """The executable function of one family member.

    ``variant == 0`` is the family's base function.  Variant ``v`` > 0
    diverges on the ~1/3 of inputs whose digest is ``0 (mod 3)`` —
    members therefore agree with the base (and with each other) on the
    remaining ~2/3 of the domain.
    """

    def transform(_ctx, inputs):
        payload = str(next(iter(inputs.values())).payload)
        digest = _family_hex(seed, family, payload)
        if variant and int(digest, 16) % 3 == 0:
            out = f"F{family}v{variant}:{digest}"
        else:
            out = f"F{family}:{digest}"
        return {out_name: string_value(out, STRING, out_concept)}

    return transform


# ----------------------------------------------------------------------
# Catalog generation
# ----------------------------------------------------------------------
def build_synthetic_catalog(
    config: SyntheticCatalogConfig = SyntheticCatalogConfig(),
) -> SyntheticCatalog:
    """Generate the synthetic world for ``config`` (fully deterministic)."""
    ontology = synthetic_ontology()
    ctx = ModuleContext(universe=None, ontology=ontology)
    n_families = (config.n_modules + FAMILY_SIZE - 1) // FAMILY_SIZE

    modules: "list[Module]" = []
    examples_by_id: "dict[str, list[DataExample]]" = {}
    family_of: "dict[str, int]" = {}
    role_of: "dict[str, str]" = {}

    for family in range(n_families):
        members = min(FAMILY_SIZE, config.n_modules - len(modules))
        concept = LEAF_CONCEPTS[family % len(LEAF_CONCEPTS)]
        pool = [f"synth:{family}:{j}" for j in range(config.pool_size)]
        variant_counter = 0
        for member in range(members):
            role = "base" if member == 0 else _ROLE_CYCLE[(member - 1) % len(_ROLE_CYCLE)]
            if role == "variant":
                variant_counter += 1
            module, examples = _build_member(
                config, family, member, role, concept, pool,
                variant_counter if role == "variant" else 0, ctx,
            )
            modules.append(module)
            examples_by_id[module.module_id] = examples
            family_of[module.module_id] = family
            role_of[module.module_id] = role

    workflows = _build_workflows(config, ctx, modules)
    return SyntheticCatalog(
        config=config,
        ctx=ctx,
        modules=modules,
        examples_by_id=examples_by_id,
        family_of=family_of,
        role_of=role_of,
        workflows=workflows,
    )


def _build_member(
    config: SyntheticCatalogConfig,
    family: int,
    member: int,
    role: str,
    concept: str,
    pool: "list[str]",
    variant: int,
    ctx: ModuleContext,
) -> "tuple[Module, list[DataExample]]":
    module_id = f"synth.f{family:04d}.m{member}"
    rng = random.Random(f"synth-{config.seed}-module-{module_id}")

    in_name, out_name = ("item", "result")
    if role == "renamed":
        in_name, out_name = ("value", "answer")
    in_concept = out_concept = concept
    if role == "relaxed":
        # Annotated one level up: a query annotated at the leaf maps to
        # this member only via strict subsumption (relaxed mapping).
        in_concept = out_concept = PARENT_CONCEPT

    transform = _make_transform(config.seed, family, variant, out_name, out_concept)
    module = Module(
        module_id=module_id,
        name=f"Synthetic {concept} mapper {family}/{member}",
        category=Category.MAPPING_IDENTIFIERS,
        interface=InterfaceKind.LOCAL_PROGRAM,
        provider=f"synth-provider-{rng.randrange(N_PROVIDERS):03d}",
        inputs=(Parameter(name=in_name, structural=STRING, concept=in_concept),),
        outputs=(Parameter(name=out_name, structural=STRING, concept=out_concept),),
        behavior=BehaviorSpec.single("map", transform),
        popularity=rng.choice((1, 1, 1, 2, 3, 5)),
    )

    sampled = rng.sample(pool, config.examples_per_module)
    examples = []
    for payload in sampled:
        value = string_value(payload, STRING, concept)
        outputs = module.invoke(ctx, {in_name: value})
        examples.append(
            DataExample(
                module_id=module_id,
                inputs=(Binding(in_name, value, partition=concept),),
                outputs=tuple(
                    Binding(name, out) for name, out in sorted(outputs.items())
                ),
            )
        )
    return module, examples


# ----------------------------------------------------------------------
# Workflow repository
# ----------------------------------------------------------------------
def _build_workflows(
    config: SyntheticCatalogConfig, ctx: ModuleContext, modules: "list[Module]"
) -> "list[Workflow]":
    """Seeded chains with valid data links, popularity-weighted."""
    rng = random.Random(f"synth-{config.seed}-workflows")
    weighted = [m for m in modules for _ in range(m.popularity)]
    by_input_concept: "dict[str, list[Module]]" = {}
    for module in modules:
        by_input_concept.setdefault(module.inputs[0].concept, []).append(module)

    # The consumers a producer may link to depend only on its output's
    # (structural, concept): found once per output type, in id order.
    accepting_by_output: "dict[tuple, list[Module]]" = {}

    def accepting_of(producer: Module) -> "list[Module]":
        output = producer.outputs[0]
        key = (output.structural, output.concept)
        accepting = accepting_by_output.get(key)
        if accepting is None:
            # Consumers annotated at the produced leaf, or (relaxed
            # members) at the subsuming parent — both link validly.
            candidates = by_input_concept.get(output.concept, [])
            candidates = candidates + by_input_concept.get(PARENT_CONCEPT, [])
            accepting = accepting_by_output[key] = sorted(
                (
                    m
                    for m in candidates
                    if link_is_valid(
                        ctx.ontology, producer, output.name, m, m.inputs[0].name
                    )
                ),
                key=lambda m: m.module_id,
            )
        return accepting

    workflows = []
    for n in range(config.n_workflows):
        length = rng.randint(config.chain_min, config.chain_max)
        chain = [rng.choice(weighted)]
        while len(chain) < length:
            accepting = accepting_of(chain[-1])
            if not accepting:
                break
            chain.append(rng.choice(accepting))
        steps = tuple(
            Step(step_id=f"s{i}", module_id=module.module_id)
            for i, module in enumerate(chain)
        )
        links = tuple(
            DataLink(
                from_step=f"s{i}",
                from_output=chain[i].outputs[0].name,
                to_step=f"s{i + 1}",
                to_input=chain[i + 1].inputs[0].name,
            )
            for i in range(len(chain) - 1)
        )
        workflows.append(
            Workflow(
                workflow_id=f"synthwf.{n:05d}",
                name=f"Synthetic chain {n}",
                steps=steps,
                links=links,
            )
        )
    return workflows
