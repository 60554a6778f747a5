"""Data-example-guided module composition (§8 future work).

The paper's second future-work item: *"We also envisage investigating the
problem of composition of scientific modules within workflows based on
data examples.  In other words, how to use data examples to implicitly
guide module composition."*

Annotation-level link checking (``link_is_valid``) answers *may* these
modules connect; data examples answer *do* they, on real values.  The
:class:`CompositionAdvisor` suggests successors for a produced value (or
for a module's outputs) by actually **feeding the candidate modules the
example output values** through their supply interfaces and keeping the
candidates that terminate normally.  This catches the mismatches
annotation checking misses (wrong flat-file format sniffing, accessions
from a scheme the consumer rejects, values outside a filter's guard) and
admits value-level connections that annotation subsumption would reject.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.examples import DataExample
from repro.engine.invoker import DirectInvoker, Invoker
from repro.modules.errors import ModuleInvocationError
from repro.modules.model import Module, ModuleContext, Parameter
from repro.pool.pool import InstancePool
from repro.values import TypedValue, compatible


@dataclass(frozen=True)
class CompositionSuggestion:
    """One verified way to extend a workflow.

    Attributes:
        producer_id: The upstream module.
        output: The upstream output parameter name.
        consumer_id: The suggested downstream module.
        input: The downstream input parameter the value feeds.
        annotation_compatible: Whether annotation-level link checking
            would also have accepted this connection (value-level
            verification can be strictly more permissive *and* stricter).
    """

    producer_id: str
    output: str
    consumer_id: str
    input: str
    annotation_compatible: bool


class CompositionAdvisor:
    """Suggests verified module compositions from data examples."""

    def __init__(
        self,
        ctx: ModuleContext,
        modules: "list[Module] | tuple[Module, ...]",
        pool: InstancePool,
        semantic_filter: bool = True,
        invoker: Invoker = DirectInvoker(),
    ) -> None:
        """Args:
            ctx: Execution context.
            modules: The candidate modules (unavailable ones are skipped).
            pool: Pool used to fill the candidates' other inputs.
            semantic_filter: When True, a value may only feed an input
                whose annotation shares a common subsumer with the value's
                concept *below* the domain root — rejecting accidental
                acceptances like a record string fed as a database name.
            invoker: What the verifying invocations go through.
        """
        self.ctx = ctx
        self.modules = [m for m in modules if m.available]
        self.pool = pool
        self.semantic_filter = semantic_filter
        self.invoker = invoker

    def _semantically_plausible(self, value: TypedValue, parameter: Parameter) -> bool:
        if not self.semantic_filter or value.concept is None:
            return True
        ontology = self.ctx.ontology
        if value.concept not in ontology or parameter.concept not in ontology:
            return True
        subsumers = ontology.least_common_subsumers(value.concept, parameter.concept)
        # Depth 0/1 are Thing / BioinformaticsData: no real relationship.
        return any(ontology.depth(name) >= 2 for name in subsumers)

    # ------------------------------------------------------------------
    def consumers_of_value(
        self, value: TypedValue, limit: int | None = None
    ) -> "list[tuple[Module, str]]":
        """Modules (with the accepting input) that process ``value``.

        Every candidate is *verified by invocation*: the value is bound to
        one structurally compatible input, remaining inputs are fed from
        the pool, and the candidate must terminate normally.
        """
        found: list[tuple[Module, str]] = []
        for module in self.modules:
            input_name = self._accepting_input(module, value)
            if input_name is None:
                continue
            found.append((module, input_name))
            if limit is not None and len(found) >= limit:
                break
        return found

    def suggest_successors(
        self,
        producer: Module,
        examples: "list[DataExample]",
        limit: int | None = None,
    ) -> "list[CompositionSuggestion]":
        """Verified successors of ``producer``, using its data examples.

        Every output value of every example is tried against every
        available module; a (producer output, consumer input) pair is
        suggested once it works for at least one example value.
        """
        from repro.workflow.model import link_is_valid

        suggestions: dict[tuple[str, str, str], CompositionSuggestion] = {}
        for example in examples:
            for binding in example.outputs:
                for module, input_name in self.consumers_of_value(binding.value):
                    if module.module_id == producer.module_id:
                        continue
                    key = (binding.parameter, module.module_id, input_name)
                    if key in suggestions:
                        continue
                    try:
                        annotation_ok = link_is_valid(
                            self.ctx.ontology, producer, binding.parameter,
                            module, input_name,
                        )
                    except KeyError:
                        annotation_ok = False
                    suggestions[key] = CompositionSuggestion(
                        producer_id=producer.module_id,
                        output=binding.parameter,
                        consumer_id=module.module_id,
                        input=input_name,
                        annotation_compatible=annotation_ok,
                    )
                    if limit is not None and len(suggestions) >= limit:
                        return list(suggestions.values())
        return list(suggestions.values())

    # ------------------------------------------------------------------
    def _accepting_input(self, module: Module, value: TypedValue) -> str | None:
        """The first input of ``module`` that accepts ``value`` in a
        normally terminating invocation, or ``None``."""
        for parameter in module.inputs:
            if not compatible(value.structural, parameter.structural):
                continue
            if not self._semantically_plausible(value, parameter):
                continue
            bindings = self._complete_bindings(module, parameter, value)
            if bindings is None:
                continue
            try:
                self.invoker.invoke(module, self.ctx, bindings)
            except ModuleInvocationError:
                continue
            return parameter.name
        return None

    def _complete_bindings(
        self, module: Module, target: Parameter, value: TypedValue
    ) -> dict[str, TypedValue] | None:
        """Bind ``value`` to ``target`` and fill the other inputs from the
        pool (first realization of the first realizable partition)."""
        from repro.core.partitioning import parameter_partitions

        bindings = {target.name: value}
        for parameter in module.inputs:
            if parameter.name == target.name:
                continue
            filler = None
            for partition in parameter_partitions(self.ctx.ontology, parameter):
                filler = self.pool.get_instance(partition, parameter.structural)
                if filler is not None:
                    break
            if filler is None:
                return None
            bindings[parameter.name] = filler
        return bindings
