"""Retry policy for transient invocation failures.

Harvesting over provider endpoints fails in two distinct ways (§3.2 vs.
§6): an *invalid input combination* is a property of the data — retrying
it is useless and would distort the heuristic's abnormal-termination
accounting — while an *unavailable provider* is a property of the moment
and routinely recovers.  The retry layer therefore retries only
:class:`~repro.modules.errors.ModuleUnavailableError`, with exponential
backoff, deterministic seeded jitter and a per-call deadline.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.engine.telemetry import default_clock
from repro.modules.errors import ModuleUnavailableError
from repro.modules.model import Module, ModuleContext
from repro.values import TypedValue


class DeadlineExceededError(ModuleUnavailableError):
    """The per-call deadline elapsed before any attempt succeeded.

    Subclasses :class:`ModuleUnavailableError` so existing callers keep
    treating it as an availability failure.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """How transient failures are retried.

    Attributes:
        max_attempts: Total attempts per call (1 = no retry).
        base_delay: Backoff before the first retry, in seconds; each
            further retry doubles it.
        jitter: Fractional jitter applied to each delay (0.1 = ±10%),
            drawn from a seeded RNG so schedules are reproducible.
        deadline: Per-call wall-clock budget in seconds (``None`` = no
            deadline).  A retry is not started when it cannot begin
            before the deadline.
        seed: Seed of the jitter RNG.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    jitter: float = 0.1
    deadline: "float | None" = None
    seed: int = 2014

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")

    def delay_before(self, retry_index: int, rng: random.Random) -> float:
        """Backoff before the ``retry_index``-th retry (0-based)."""
        delay = self.base_delay * 2.0 ** retry_index
        if self.jitter:
            delay *= 1.0 + self.jitter * rng.uniform(-1.0, 1.0)
        return max(delay, 0.0)


class RetryingInvoker:
    """Wraps an invoker with a :class:`RetryPolicy`.

    The clock and sleep functions are injectable so tests exercise
    backoff and deadlines without real waiting.
    """

    def __init__(
        self,
        inner,
        policy: RetryPolicy,
        clock: Callable[[], float] = default_clock,
        sleep: Callable[[float], None] = time.sleep,
        on_retry: "Callable[[Module, int, ModuleUnavailableError], None] | None" = None,
        on_exhausted: "Callable[[Module, ModuleUnavailableError], None] | None" = None,
    ) -> None:
        self.inner = inner
        self.policy = policy
        self._clock = clock
        self._sleep = sleep
        self._on_retry = on_retry
        self._on_exhausted = on_exhausted
        self._rng = random.Random(policy.seed)
        self._rng_lock = threading.Lock()

    def invoke(
        self, module: Module, ctx: ModuleContext, bindings: dict[str, TypedValue]
    ) -> dict[str, TypedValue]:
        """Invoke with retries.

        Raises:
            InvalidInputError: Immediately — permanent failures are
                never retried.
            DeadlineExceededError: The deadline elapsed with the module
                still unavailable.
            ModuleUnavailableError: Every attempt failed transiently.
        """
        policy = self.policy
        start = self._clock()
        attempt = 0
        while True:
            try:
                return self.inner.invoke(module, ctx, bindings)
            except ModuleUnavailableError as error:
                attempt += 1
                if attempt >= policy.max_attempts:
                    if self._on_exhausted is not None:
                        self._on_exhausted(module, error)
                    raise
                with self._rng_lock:
                    delay = policy.delay_before(attempt - 1, self._rng)
                if policy.deadline is not None:
                    elapsed = self._clock() - start
                    if elapsed + delay >= policy.deadline:
                        if self._on_exhausted is not None:
                            self._on_exhausted(module, error)
                        raise DeadlineExceededError(
                            f"{module.module_id}: still unavailable after "
                            f"{attempt} attempt(s) and {elapsed:.3f}s "
                            f"(deadline {policy.deadline:.3f}s)"
                        ) from error
                if self._on_retry is not None:
                    self._on_retry(module, attempt, error)
                if delay:
                    self._sleep(delay)
