"""Equivalence of :class:`InvocationCache` with a reference LRU model.

The model below spells out the cache's contract in the plainest terms —
a list for the recency order, a dict for the entries, and the staleness
rule (an older generation, or a negative entry at least ``negative_ttl``
old, is dropped on lookup and counted as expired and as a miss) checked
on every negative lookup.  Scripted and generated sequences of lookups,
stores, clock ticks, generation bumps and invalidations must leave the
cache and the model with identical stats, recency order and replayed
outcomes after every step.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import CacheStats, InvocationCache
from repro.modules.errors import InvalidInputError


class Rejected(InvalidInputError):
    """A rejection subclass: replay must re-raise the stored type."""


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class ModelCache:
    """The reference: LRU over a list, entries in a dict."""

    def __init__(self, maxsize, negative_ttl, clock) -> None:
        self.maxsize = maxsize
        self.negative_ttl = negative_ttl
        self.clock = clock
        self.generation = 0
        self.order: "list[tuple[str, str]]" = []
        # key -> ("ok", outputs) or ("fail", type, message, stored_at, generation)
        self.entries: dict = {}
        self.stats = {
            "hits": 0, "negative_hits": 0, "misses": 0, "evictions": 0,
            "negative_expired": 0,
        }

    def _touch(self, key) -> None:
        if key in self.order:
            self.order.remove(key)
        self.order.append(key)

    def _drop(self, key) -> None:
        self.order.remove(key)
        del self.entries[key]

    def lookup(self, key):
        entry = self.entries.get(key)
        if entry is None:
            self.stats["misses"] += 1
            return None
        if entry[0] == "fail":
            _, _, _, stored_at, generation = entry
            stale = generation < self.generation or (
                self.negative_ttl is not None
                and self.clock() - stored_at >= self.negative_ttl
            )
            if stale:
                self._drop(key)
                self.stats["negative_expired"] += 1
                self.stats["misses"] += 1
                return None
            self.stats["negative_hits"] += 1
        else:
            self.stats["hits"] += 1
        self._touch(key)
        return entry

    def _store(self, key, entry) -> None:
        self._touch(key)
        self.entries[key] = entry
        while len(self.order) > self.maxsize:
            del self.entries[self.order.pop(0)]
            self.stats["evictions"] += 1

    def store_success(self, key, outputs) -> None:
        self._store(key, ("ok", dict(outputs)))

    def store_failure(self, key, error) -> None:
        self._store(
            key,
            ("fail", type(error), str(error), self.clock(), self.generation),
        )

    def invalidate(self, module_id=None) -> int:
        doomed = [k for k in self.order if module_id is None or k[0] == module_id]
        for key in doomed:
            self._drop(key)
        return len(doomed)

    def bump_generation(self, module_id=None) -> int:
        if module_id is None:
            self.generation += 1
            return 0
        doomed = [
            k for k in self.order
            if k[0] == module_id and self.entries[k][0] == "fail"
        ]
        for key in doomed:
            self._drop(key)
        self.stats["negative_expired"] += len(doomed)
        return len(doomed)


def replayed(outcome):
    """What a caller observes from a cached outcome."""
    if outcome is None:
        return None
    try:
        return ("ok", outcome.replay())
    except InvalidInputError as error:
        return ("fail", type(error), str(error))


def modelled(entry):
    if entry is None:
        return None
    if entry[0] == "ok":
        return ("ok", dict(entry[1]))
    return ("fail", entry[1], entry[2])


def run_script(script, maxsize, negative_ttl):
    clock = Clock()
    cache = InvocationCache(maxsize, negative_ttl=negative_ttl, clock=clock)
    model = ModelCache(maxsize, negative_ttl, clock)
    for step, (op, arg) in enumerate(script):
        if op == "lookup":
            got = replayed(cache.lookup(arg))
            assert got == modelled(model.lookup(arg)), (step, op, arg)
        elif op == "ok":
            outputs = {"out": f"{arg[1]}!"}
            cache.store_success(arg, outputs)
            model.store_success(arg, outputs)
        elif op == "fail":
            error = (Rejected if arg[1] == "2" else InvalidInputError)(f"no {arg}")
            cache.store_failure(arg, error)
            model.store_failure(arg, error)
        elif op == "tick":
            clock.now += arg
        elif op == "bump":
            assert cache.bump_generation(arg) == model.bump_generation(arg)
        elif op == "invalidate":
            assert cache.invalidate(arg) == model.invalidate(arg)
        assert cache.stats == CacheStats(**model.stats), (step, op, arg)
        assert list(cache._entries) == model.order, (step, op, arg)
        assert len(cache) == len(model.order)
        assert cache.generation == model.generation
    return cache


A0, A1, A2, B0, B1 = ("a", "0"), ("a", "1"), ("a", "2"), ("b", "0"), ("b", "1")

SCRIPT = [
    ("lookup", A0),                     # cold miss
    ("ok", A0), ("lookup", A0),         # hit
    ("fail", A1), ("lookup", A1),       # negative hit
    ("fail", A2), ("lookup", A2),       # negative hit, replayed subclass
    ("lookup", A0),                     # freshen A0: A1 is now oldest
    ("ok", B0),                         # evicts A1
    ("lookup", A1),                     # evicted: miss
    ("tick", 4.0), ("lookup", A2),      # not yet expired
    ("tick", 1.0), ("lookup", A2),      # ttl reached: expired + miss
    ("fail", A2), ("bump", None),       # global bump: lazily stale
    ("lookup", A0),                     # positive entries never go stale
    ("lookup", A2),                     # stale generation: expired + miss
    ("fail", B1), ("fail", A1),         # evicts the oldest
    ("ok", A0),                         # re-store freshens in place
    ("bump", "b"),                      # drops b's negatives eagerly
    ("lookup", B1), ("lookup", B0),
    ("invalidate", "a"), ("lookup", A0),
    ("ok", A0), ("ok", B0), ("invalidate", None), ("lookup", B0),
]


def test_scripted_sequence_matches_the_model():
    cache = run_script(SCRIPT, maxsize=3, negative_ttl=5.0)
    stats = cache.stats
    assert stats.hits and stats.negative_hits and stats.misses
    assert stats.evictions >= 2
    assert stats.negative_expired >= 3


def test_scripted_sequence_without_ttl_matches_the_model():
    cache = run_script(SCRIPT, maxsize=3, negative_ttl=None)
    assert cache.stats.negative_expired >= 1


keys = st.sampled_from([A0, A1, A2, B0, B1])
operations = st.one_of(
    st.tuples(st.just("lookup"), keys),
    st.tuples(st.just("ok"), keys),
    st.tuples(st.just("fail"), keys),
    st.tuples(st.just("tick"), st.sampled_from([0.5, 1.0, 2.5, 5.0])),
    st.tuples(st.just("bump"), st.sampled_from([None, "a", "b"])),
    st.tuples(st.just("invalidate"), st.sampled_from([None, "a", "b"])),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(operations, max_size=40),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([None, 1.0, 3.0]),
)
def test_generated_sequences_match_the_model(script, maxsize, negative_ttl):
    run_script(script, maxsize, negative_ttl)


@pytest.mark.parametrize("maxsize", [0, -1])
def test_rejects_non_positive_capacity(maxsize):
    with pytest.raises(ValueError):
        InvocationCache(maxsize)
