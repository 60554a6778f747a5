"""Memoizing invocation cache.

Module behaviors are deterministic functions of their input bindings
(§2: a module computes one output tuple per valid input combination), so
an invocation is safe to memoize on ``(module_id, canonical bindings)``.
The canonical form is :func:`repro.values.canonical.bindings_json`, the
same encoding §6 tokens and drift detection compare values by — not the
wire serialization: it sorts parameter names and replaces NaN payloads
by a self-equal token, where the wire form would print ``NaN``.

Abnormal terminations are memoized too (*negative caching*): an input
combination a module rejects is rejected forever — as long as the module
itself stays the same.  A *repaired* module (§6: a provider re-supplies
a fixed implementation) may start accepting combinations it used to
reject, so negative entries carry a **generation stamp** and an optional
**TTL**: :meth:`InvocationCache.bump_generation` lazily expires the
negative entries of a repaired module (or of the whole cache), and a
``negative_ttl`` re-opens every rejection for revisiting after it ages
out.  Positive entries are true functions of the inputs and never expire.
Availability failures are **not** cached — provider decay (§6) is a
transient property of the provider, not of the input combination — and
the engine neither consults nor fills the cache for a module whose
provider has withdrawn it, so a decayed module never answers from what
it returned while it was supplied.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from repro.engine.telemetry import default_clock
from repro.modules.errors import InvalidInputError
from repro.modules.model import Module
from repro.values import TypedValue
from repro.values.canonical import bindings_json


def canonical_key(module: Module, bindings: dict[str, TypedValue]) -> tuple[str, str]:
    """The cache key of one invocation: module id + canonical bindings.

    The canonical form (:func:`~repro.values.canonical.bindings_json`) is
    deliberately self-contained rather than delegating to the wire
    serialization: parameter insertion order is erased by sorting, and
    NaN payloads are normalized to a self-equal token so identical
    inputs always key identically.
    """
    return module.module_id, bindings_json(bindings)


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting of one cache."""

    hits: int = 0
    negative_hits: int = 0
    misses: int = 0
    evictions: int = 0
    negative_expired: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.negative_hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return (self.hits + self.negative_hits) / lookups if lookups else 0.0


class CachedOutcome(NamedTuple):
    """The memoized result of one invocation: either the output bindings
    or the permanent failure the module answered with.

    Negative outcomes additionally remember *when* (``stored_at``, on
    the cache's clock) and *under which generation* they were stored, so
    TTL expiry and repair-driven invalidation can revisit them.  A named
    tuple, because every cache miss builds one: a tuple is built in one
    step, not one ``object.__setattr__`` per field."""

    outputs: "dict[str, TypedValue] | None" = None
    error_type: "type[InvalidInputError] | None" = None
    error_message: str = ""
    stored_at: float = 0.0
    generation: int = 0

    @property
    def is_failure(self) -> bool:
        return self.error_type is not None

    def replay(self) -> dict[str, TypedValue]:
        """Return the cached outputs, or re-raise the cached failure.

        A fresh exception instance is constructed so each caller gets its
        own traceback; exotic constructors fall back to the base class.

        Raises:
            InvalidInputError: The memoized abnormal termination.
        """
        if self.error_type is not None:
            try:
                raise self.error_type(self.error_message)
            except TypeError:
                raise InvalidInputError(self.error_message) from None
        # Shallow copy: callers may mutate the mapping they receive.
        return dict(self.outputs or {})


class InvocationCache:
    """A bounded, thread-safe LRU cache of invocation outcomes.

    Args:
        maxsize: LRU capacity.
        negative_ttl: Seconds a negative entry stays replayable; ``None``
            keeps rejections forever (positive entries never expire).
        clock: The clock negative entries are stamped with, injectable
            for tests.
    """

    def __init__(
        self,
        maxsize: int = 4096,
        negative_ttl: "float | None" = None,
        clock=default_clock,
    ) -> None:
        if maxsize <= 0:
            raise ValueError(f"cache maxsize must be positive, got {maxsize}")
        if negative_ttl is not None and negative_ttl <= 0:
            raise ValueError(f"negative_ttl must be positive, got {negative_ttl}")
        self.maxsize = maxsize
        self.negative_ttl = negative_ttl
        self.generation = 0
        self.stats = CacheStats()
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple[str, str], CachedOutcome]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    def lookup(self, key: tuple[str, str]) -> "CachedOutcome | None":
        """The cached outcome for ``key`` (freshened to most-recent), or
        ``None`` on a miss.  A negative entry past its TTL or from an
        older generation is dropped and reported as a miss — the module
        may have been repaired since the rejection was observed."""
        with self._lock:
            outcome = self._entries.get(key)
            if outcome is None:
                self.stats.misses += 1
                return None
            # Positive entries never expire: the common hit is tested
            # first, with no staleness check.
            if outcome.error_type is None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return outcome
            if outcome.generation < self.generation or (
                self.negative_ttl is not None
                and self._clock() - outcome.stored_at >= self.negative_ttl
            ):
                del self._entries[key]
                self.stats.negative_expired += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.negative_hits += 1
            return outcome

    def store_success(
        self, key: tuple[str, str], outputs: dict[str, TypedValue]
    ) -> None:
        """Memoize a normal termination."""
        self._store(key, CachedOutcome(dict(outputs)))

    def store_failure(self, key: tuple[str, str], error: InvalidInputError) -> None:
        """Memoize an abnormal termination (negative caching)."""
        self._store(
            key,
            CachedOutcome(
                error_type=type(error),
                error_message=str(error),
                stored_at=self._clock(),
                generation=self.generation,
            ),
        )

    def _store(self, key: tuple[str, str], outcome: CachedOutcome) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = outcome
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    # ------------------------------------------------------------------
    def invalidate(self, module_id: "str | None" = None) -> int:
        """Drop every entry (or only ``module_id``'s); returns the count."""
        with self._lock:
            if module_id is None:
                dropped = len(self._entries)
                self._entries.clear()
                return dropped
            doomed = [key for key in self._entries if key[0] == module_id]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def bump_generation(self, module_id: "str | None" = None) -> int:
        """Re-open negative classifications after a repair event.

        With a ``module_id``, that module's negative entries are dropped
        eagerly (its positive entries stay — normal terminations remain
        functions of the inputs).  Without one, the cache's generation
        counter is bumped and *every* outstanding negative entry expires
        lazily on its next lookup.

        Returns:
            The number of entries dropped eagerly (0 for a global bump).
        """
        with self._lock:
            if module_id is None:
                self.generation += 1
                return 0
            doomed = [
                key
                for key, outcome in self._entries.items()
                if key[0] == module_id and outcome.is_failure
            ]
            for key in doomed:
                del self._entries[key]
            self.stats.negative_expired += len(doomed)
            return len(doomed)
