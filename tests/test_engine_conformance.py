"""Tests of output-conformance validation: arity/structure/semantics
checks, the nondeterminism probe, and the malformed path through the
assembled engine."""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine import (
    ConformancePolicy,
    ConformingInvoker,
    DirectInvoker,
    EngineConfig,
    FaultPlan,
    InvocationEngine,
)
from repro.engine.breaker import BreakerPolicy, BreakerState
from repro.modules.errors import (
    MalformedOutputError,
    NondeterministicOutputError,
)
from repro.values import INTEGER


@pytest.fixture
def module(catalog_by_id):
    return catalog_by_id["ret.get_uniprot_record"]


@pytest.fixture
def good_bindings(ctx, pool, module):
    value = pool.get_instance(
        module.inputs[0].concept, module.inputs[0].structural
    )
    assert value is not None
    return {module.inputs[0].name: value}


@pytest.fixture
def honest_outputs(module, ctx, good_bindings):
    return DirectInvoker().invoke(module, ctx, good_bindings)


class ScriptedOutputs:
    """An invoker that replays a fixed sequence of output dicts."""

    def __init__(self, *outputs):
        self.outputs = list(outputs)
        self.calls = 0

    def invoke(self, module, ctx, bindings):
        self.calls += 1
        outputs = self.outputs.pop(0) if len(self.outputs) > 1 else self.outputs[0]
        return dict(outputs)


def conforming(inner, **policy):
    return ConformingInvoker(inner, ConformancePolicy(**policy))


class TestValidation:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="probe_rate"):
            ConformancePolicy(probe_rate=1.5)
        with pytest.raises(ValueError, match="probe_rate"):
            ConformancePolicy(probe_rate=-0.1)

    def test_honest_outputs_pass(self, module, ctx, good_bindings):
        checker = conforming(DirectInvoker())
        outputs = checker.invoke(module, ctx, good_bindings)
        assert set(outputs) == {p.name for p in module.outputs}
        assert checker.stats.checked == 1
        assert checker.stats.violations == 0

    def test_missing_output_is_an_arity_violation(
        self, module, ctx, good_bindings, honest_outputs
    ):
        lying = dict(honest_outputs)
        del lying[sorted(lying)[-1]]
        checker = conforming(ScriptedOutputs(lying))
        with pytest.raises(MalformedOutputError, match="output names"):
            checker.invoke(module, ctx, good_bindings)
        assert checker.stats.arity_violations == 1

    def test_renamed_output_is_an_arity_violation(
        self, module, ctx, good_bindings, honest_outputs
    ):
        name = sorted(honest_outputs)[0]
        lying = dict(honest_outputs)
        lying["not_" + name] = lying.pop(name)
        checker = conforming(ScriptedOutputs(lying))
        with pytest.raises(MalformedOutputError) as excinfo:
            checker.invoke(module, ctx, good_bindings)
        assert excinfo.value.cause == "malformed-output"
        assert excinfo.value.outputs  # the lie is captured for quarantine

    def test_wrong_structural_type_is_a_structure_violation(
        self, module, ctx, good_bindings, honest_outputs
    ):
        name = module.outputs[0].name
        lying = dict(honest_outputs)
        lying[name] = dataclasses.replace(
            lying[name], payload=7, structural=INTEGER
        )
        checker = conforming(ScriptedOutputs(lying))
        with pytest.raises(MalformedOutputError, match="requires"):
            checker.invoke(module, ctx, good_bindings)
        assert checker.stats.structure_violations == 1

    def test_unknown_concept_is_a_semantic_violation(
        self, module, ctx, good_bindings, honest_outputs
    ):
        name = module.outputs[0].name
        lying = dict(honest_outputs)
        lying[name] = dataclasses.replace(lying[name], concept="no:such_concept")
        checker = conforming(ScriptedOutputs(lying))
        with pytest.raises(MalformedOutputError, match="annotated domain"):
            checker.invoke(module, ctx, good_bindings)
        assert checker.stats.semantic_violations == 1

    def test_unsubsumed_concept_is_a_semantic_violation(
        self, module, ctx, good_bindings, honest_outputs
    ):
        parameter = module.outputs[0]
        alien = next(
            concept
            for concept in ctx.ontology.names()
            if not ctx.ontology.subsumes(parameter.concept, concept)
        )
        lying = dict(honest_outputs)
        lying[parameter.name] = dataclasses.replace(
            lying[parameter.name], concept=alien
        )
        checker = conforming(ScriptedOutputs(lying))
        with pytest.raises(MalformedOutputError, match="annotated domain"):
            checker.invoke(module, ctx, good_bindings)

    def test_untyped_value_skips_the_semantic_check(
        self, module, ctx, good_bindings, honest_outputs
    ):
        name = module.outputs[0].name
        relaxed = dict(honest_outputs)
        relaxed[name] = dataclasses.replace(relaxed[name], concept=None)
        checker = conforming(ScriptedOutputs(relaxed))
        checker.invoke(module, ctx, good_bindings)
        assert checker.stats.violations == 0

    def test_on_violation_hook_fires(self, module, ctx, good_bindings, honest_outputs):
        seen = []
        lying = dict(honest_outputs)
        del lying[sorted(lying)[-1]]
        checker = ConformingInvoker(
            ScriptedOutputs(lying),
            ConformancePolicy(),
            on_violation=lambda m, e: seen.append((m.module_id, type(e).__name__)),
        )
        with pytest.raises(MalformedOutputError):
            checker.invoke(module, ctx, good_bindings)
        assert seen == [(module.module_id, "MalformedOutputError")]


class TestNondeterminismProbe:
    def test_probe_decision_is_content_keyed_and_stable(
        self, module, ctx, good_bindings
    ):
        checker = conforming(DirectInvoker(), probe_rate=0.5)
        first = checker.should_probe(module, good_bindings)
        # Identical regardless of how often or when it is asked.
        assert all(
            checker.should_probe(module, good_bindings) == first
            for _ in range(5)
        )

    def test_probe_rate_edges(self, module, good_bindings):
        never = conforming(DirectInvoker(), probe_rate=0.0)
        always = conforming(DirectInvoker(), probe_rate=1.0)
        assert never.should_probe(module, good_bindings) is False
        assert always.should_probe(module, good_bindings) is True

    def test_stable_module_survives_the_probe(self, module, ctx, good_bindings):
        checker = conforming(DirectInvoker(), probe_rate=1.0)
        checker.invoke(module, ctx, good_bindings)
        assert checker.stats.probes == 1
        assert checker.stats.unstable == 0

    def test_unstable_module_is_flagged(
        self, module, ctx, good_bindings, honest_outputs
    ):
        name = module.outputs[0].name
        second = dict(honest_outputs)
        second[name] = dataclasses.replace(
            second[name], payload=str(second[name].payload) + "#run2"
        )
        checker = conforming(
            ScriptedOutputs(honest_outputs, second), probe_rate=1.0
        )
        with pytest.raises(NondeterministicOutputError) as excinfo:
            checker.invoke(module, ctx, good_bindings)
        assert excinfo.value.cause == "nondeterministic"
        assert checker.stats.unstable == 1
        assert checker.stats.unstable_modules == {module.module_id}
        snap = checker.snapshot()
        assert snap["unstable_modules"] == [module.module_id]


class TestEngineMalformedPath:
    def _engine(self, module, fault_field, **config):
        return InvocationEngine(
            EngineConfig(
                fault_plan=FaultPlan(
                    **{fault_field: frozenset({module.provider})}
                ),
                conformance=ConformancePolicy(probe_rate=1.0),
                breaker=BreakerPolicy(failure_threshold=1, probe_interval=60.0),
                **config,
            )
        )

    def test_corrupt_output_is_malformed_not_unavailable(
        self, module, ctx, good_bindings
    ):
        engine = self._engine(module, "corrupt_output_providers")
        with pytest.raises(MalformedOutputError):
            engine.invoke(module, ctx, good_bindings)
        # The provider answered: circuits stay closed even at threshold 1.
        assert engine.breaker.state(module.provider) is BreakerState.CLOSED
        assert engine.telemetry.counter("conformance_violations") == 1
        assert engine.telemetry.counter("malformed") == 1
        record = engine.health.record(module.module_id)
        assert record.malformed == 1
        assert record.consecutive_failures == 0
        assert record.answered == 1

    def test_nondeterministic_provider_is_caught_by_the_probe(
        self, module, ctx, good_bindings
    ):
        engine = self._engine(module, "nondeterministic_providers")
        with pytest.raises(NondeterministicOutputError):
            engine.invoke(module, ctx, good_bindings)
        assert engine.conformance.stats.unstable == 1
        text = engine.render_stats()
        assert "conformance" in text and "1 unstable" in text

    def test_malformed_output_is_never_cached(self, module, ctx, good_bindings):
        engine = self._engine(module, "corrupt_output_providers", cache_size=64)
        for _ in range(2):
            with pytest.raises(MalformedOutputError):
                engine.invoke(module, ctx, good_bindings)
        assert engine.telemetry.counter("cache_misses") == 2
        assert engine.telemetry.counter("cache_hits") == 0
        assert engine.telemetry.counter("cache_negative_hits") == 0
