"""Workflow enactment with provenance capture.

The enactor runs a workflow's steps in topological order, feeding each
input either from its incoming data link or — for free inputs — from the
annotated instance pool, and records a Taverna-style provenance trace.

Free inputs are fed with the first pool realization (per the partition
order of the input's annotation) that lets the invocation terminate
normally, mirroring how real workflows are run with curated sample
inputs.

Every step runs through an :class:`~repro.engine.invoker.Invoker`.  A
caching engine keeps the two failure outcomes apart: an unavailable
module is never cached, so it still stops the step, and a replayed
rejection still moves the step on to the next value combination.
"""

from __future__ import annotations

import itertools

from repro.core.examples import Binding
from repro.core.partitioning import parameter_partitions
from repro.engine.invoker import DirectInvoker, Invoker
from repro.modules.errors import ModuleInvocationError, ModuleUnavailableError
from repro.modules.model import Module, ModuleContext
from repro.pool.pool import InstancePool
from repro.values import TypedValue
from repro.workflow.model import Workflow
from repro.workflow.provenance import InvocationRecord, ProvenanceTrace


class EnactmentError(RuntimeError):
    """Raised when a workflow cannot be enacted to completion."""

    def __init__(self, message: str, trace: ProvenanceTrace) -> None:
        super().__init__(message)
        self.trace = trace


class Enactor:
    """Runs workflows against a module registry, pool and context, calling
    every module through ``invoker``."""

    def __init__(
        self,
        ctx: ModuleContext,
        modules: dict[str, Module],
        pool: InstancePool,
        invoker: Invoker = DirectInvoker(),
    ) -> None:
        self.ctx = ctx
        self.modules = modules
        self.pool = pool
        self.invoker = invoker

    # ------------------------------------------------------------------
    def enact(self, workflow: Workflow) -> ProvenanceTrace:
        """Run ``workflow``; returns its provenance trace.

        Raises:
            EnactmentError: When a step cannot be completed (unavailable
                module, no viable free-input values, invalid data); the
                partial trace is attached to the error.
        """
        trace = ProvenanceTrace(workflow_id=workflow.workflow_id)
        produced: dict[tuple[str, str], TypedValue] = {}
        for time, step in enumerate(workflow.topological_order()):
            module = self.modules.get(step.module_id)
            if module is None:
                trace.succeeded = False
                trace.failure = f"unknown module {step.module_id}"
                raise EnactmentError(trace.failure, trace)
            linked: dict[str, TypedValue] = {}
            for link in workflow.incoming(step.step_id):
                value = produced.get((link.from_step, link.from_output))
                if value is None:
                    trace.succeeded = False
                    trace.failure = (
                        f"{step.step_id}: upstream value "
                        f"{link.from_step}.{link.from_output} missing"
                    )
                    raise EnactmentError(trace.failure, trace)
                linked[link.to_input] = value
            record = self._invoke_step(step.step_id, module, linked, time)
            trace.invocations.append(record)
            if not record.succeeded:
                trace.succeeded = False
                trace.failure = f"step {step.step_id} failed"
                raise EnactmentError(trace.failure, trace)
            for binding in record.outputs:
                produced[(step.step_id, binding.parameter)] = binding.value
        return trace

    def try_enact(self, workflow: Workflow) -> ProvenanceTrace:
        """Like :meth:`enact` but returns the (failed) trace instead of
        raising."""
        try:
            return self.enact(workflow)
        except EnactmentError as error:
            return error.trace

    # ------------------------------------------------------------------
    def _invoke_step(
        self,
        step_id: str,
        module: Module,
        linked: dict[str, TypedValue],
        time: int,
    ) -> InvocationRecord:
        free = [p for p in module.inputs if p.name not in linked]
        candidate_lists: list[list[TypedValue]] = []
        for parameter in free:
            values = [
                value
                for partition in parameter_partitions(self.ctx.ontology, parameter)
                if (value := self.pool.get_instance(partition, parameter.structural))
                is not None
            ]
            candidate_lists.append(values)
        for combo in itertools.product(*candidate_lists) if all(candidate_lists) else [()]:
            bindings = dict(linked)
            bindings.update(
                {parameter.name: value for parameter, value in zip(free, combo)}
            )
            if len(bindings) != len(module.inputs):
                break
            try:
                outputs = self.invoker.invoke(module, self.ctx, bindings)
            except ModuleUnavailableError:
                # The provider is gone: no value combination can help.
                break
            except ModuleInvocationError:
                continue
            return InvocationRecord(
                step_id=step_id,
                module_id=module.module_id,
                inputs=tuple(
                    Binding(name, value) for name, value in sorted(bindings.items())
                ),
                outputs=tuple(
                    Binding(name, value) for name, value in sorted(outputs.items())
                ),
                succeeded=True,
                logical_time=time,
            )
        return InvocationRecord(
            step_id=step_id,
            module_id=module.module_id,
            inputs=tuple(
                Binding(name, value) for name, value in sorted(linked.items())
            ),
            outputs=(),
            succeeded=False,
            logical_time=time,
        )
