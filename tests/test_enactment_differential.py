"""Enactment through a caching engine traces what the bare round trip
traces.

Every workflow of the seed-2014 repository is enacted before the decay
event and after it, and every repaired workflow after it — once through
a bare invoker and once through a caching
:class:`~repro.engine.invoker.InvocationEngine` over the same invoker.
The traces must be equal step for step: a module cached while supplied
stops its step once withdrawn, and a rejection replayed from the
negative cache moves the step on to the next value.

No step of the repository rejects a value it is fed, so a second world
runs the same enactments over a *picky* invoker: every supplied module
also rejects a fixed quarter of its input combinations (a function of
the bindings, as a module's rejections are), so steps skip values.
"""

from __future__ import annotations

import zlib

import pytest

from repro.engine import DirectInvoker, EngineConfig, InvocationEngine
from repro.modules.catalog.decayed import DECAYED_PROVIDERS
from repro.modules.errors import InvalidInputError
from repro.values import bindings_json
from repro.workflow.decay import restore_providers, shut_down_providers
from repro.workflow.enactment import Enactor


class CountingInvoker(DirectInvoker):
    """The bare supply-interface round trip, counted."""

    calls = 0

    def invoke(self, module, ctx, bindings):
        self.calls += 1
        return super().invoke(module, ctx, bindings)


class PickyInvoker(CountingInvoker):
    """Rejects a fixed quarter of a supplied module's input combinations;
    counts the steps that then succeed on a later value."""

    skips = 0
    _rejected = None

    def invoke(self, module, ctx, bindings):
        if module.available and not zlib.crc32(
            bindings_json(bindings).encode()
        ) % 4:
            self.calls += 1
            self._rejected = module.module_id
            raise InvalidInputError("picky provider")
        outputs = super().invoke(module, ctx, bindings)
        if self._rejected == module.module_id:
            self.skips += 1
        self._rejected = None
        return outputs


def enact_around_decay(setup, invoker) -> list:
    """Traces of every workflow before and after the decay event, then of
    every repaired workflow; the decayed providers end shut down, as the
    shared fixture keeps them."""
    enactor = Enactor(setup.ctx, setup.modules_by_id, setup.pool, invoker)
    workflows = setup.repository.workflows
    repaired = [r.repaired for r in setup.repairs if r.repaired is not None]
    restore_providers(setup.decayed, DECAYED_PROVIDERS)
    try:
        traces = [enactor.try_enact(w) for w in workflows]
    finally:
        shut_down_providers(setup.decayed, DECAYED_PROVIDERS)
    traces += [enactor.try_enact(w) for w in workflows + repaired]
    return traces


@pytest.fixture(scope="module", params=[CountingInvoker, PickyInvoker])
def runs(request, setup):
    """``(direct, direct traces, cached inner, engine, cached traces)``."""
    direct = request.param()
    inner = request.param()
    engine = InvocationEngine(EngineConfig(cache_size=4096), invoker=inner)
    return (
        direct, enact_around_decay(setup, direct),
        inner, engine, enact_around_decay(setup, engine),
    )


def test_cached_traces_equal_direct_traces(runs):
    _direct, direct_traces, _inner, _engine, cached_traces = runs
    assert len(cached_traces) == len(direct_traces)
    for mine, theirs in zip(cached_traces, direct_traces):
        assert mine == theirs, theirs.workflow_id


def test_withdrawn_modules_stop_their_steps(runs, setup):
    _direct, direct_traces, _inner, engine, _cached_traces = runs
    n = len(setup.repository.workflows)
    assert not all(trace.succeeded for trace in direct_traces[n:2 * n])
    # Withdrawn modules were called and answered as withdrawn, never
    # from the entries cached while they were supplied.
    assert engine.telemetry.counter("unavailable") > 0


@pytest.mark.parametrize("runs", [PickyInvoker], indirect=True)
def test_replayed_rejections_move_steps_on(runs):
    direct, _direct_traces, _inner, engine, _cached_traces = runs
    assert direct.skips > 0
    assert engine.telemetry.counter("cache_negative_hits") > 0


def test_the_cache_saves_underlying_calls(runs):
    direct, _direct_traces, inner, engine, _cached_traces = runs
    assert inner.calls == engine.telemetry.counter("calls")
    assert 0 < inner.calls < direct.calls
