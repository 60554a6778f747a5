"""Per-tenant token-bucket rate limiting.

Tenancy is deliberately lightweight: the tenant is whatever the client
sends in the ``X-Api-Key`` header (``anonymous`` when absent).  Each
tenant gets an independent token bucket, so one chatty client exhausts
*its own* budget and starts seeing ``429 rate-limited`` responses while
every other tenant is completely unaffected — the isolation property the
concurrent stress test pins down.

A token bucket is the classic shape: capacity ``burst`` tokens,
refilled continuously at ``rate`` tokens/second.  A request costs one
token; an empty bucket yields the time until the next token, which the
server surfaces as ``Retry-After``.

Buckets live in process memory by default.  Handing the limiter a
:class:`~repro.serve.state.ServeStateStore` moves them into the durable
SQLite journal instead: every replica of a fleet charges the *same*
bucket (one tenant cannot multiply its budget by the replica count), and
a restarted fleet resumes tenant accounting from exactly the journaled
balances.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.engine.telemetry import default_clock

#: Tenant used when the client sends no ``X-Api-Key`` header.
ANONYMOUS_TENANT = "anonymous"


def spend_token(
    tokens: float, refilled: float, now: float, rate: float, burst: float
) -> "tuple[float, bool, float]":
    """Refill a bucket holding ``tokens`` since ``refilled`` up to
    ``now``, then try to spend one token: the one refill rule of the
    in-memory :class:`TokenBucket` and the durable
    :meth:`~repro.serve.state.ServeStateStore.charge_tenant`.

    ``max(0, now - refilled)`` guards a clock stepping backwards, which
    must never mint tokens.

    Returns:
        ``(tokens left, allowed, retry_after_s)``: ``retry_after_s`` is
        0.0 when admitted, else the wait until one token has refilled.
    """
    tokens = min(burst, tokens + max(0.0, now - refilled) * rate)
    if tokens >= 1.0:
        return tokens - 1.0, True, 0.0
    return tokens, False, (1.0 - tokens) / rate


class TokenBucket:
    """One tenant's budget: ``burst`` capacity, ``rate`` tokens/second.

    Args:
        rate: Sustained tokens per second.
        burst: Bucket capacity (momentary burst allowance).
        clock: Monotonic clock, injectable for tests.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = default_clock,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be at least 1")
        self.rate = rate
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._refilled_at = clock()
        self._lock = threading.Lock()
        self.allowed = 0
        self.limited = 0

    def try_acquire(self) -> "tuple[bool, float]":
        """Spend one token if available.

        Returns:
            ``(True, 0.0)`` when admitted; ``(False, retry_after_s)``
            when the bucket is empty, with the wait until one token has
            refilled.
        """
        with self._lock:
            now = self._clock()
            self._tokens, allowed, retry_after = spend_token(
                self._tokens, self._refilled_at, now, self.rate, self.burst
            )
            self._refilled_at = now
            if allowed:
                self.allowed += 1
            else:
                self.limited += 1
            return allowed, retry_after

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "allowed": self.allowed,
                "limited": self.limited,
                "tokens": round(self._tokens, 3),
                "rate": self.rate,
                "burst": self.burst,
            }


class TenantRateLimiter:
    """A lazily-populated registry of per-tenant token buckets.

    Every previously-unseen tenant key gets a fresh bucket with the
    default ``rate``/``burst``; named tenants can be given bespoke
    budgets via :meth:`configure` (e.g. a bigger allowance for an
    internal batch client).  ``rate=None`` disables limiting entirely —
    useful for trusted single-tenant deployments and for the load
    harness's capacity phase.

    With ``store`` set, buckets are journal-backed (see module docs):
    charges go through the store's atomic read-modify-write transaction
    on the wall clock instead of in-memory buckets on the monotonic
    clock, so they are shared across replica processes and survive
    restarts.
    """

    def __init__(
        self,
        rate: "float | None" = 50.0,
        burst: float = 100.0,
        clock: Callable[[], float] = default_clock,
        store=None,
    ) -> None:
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._store = store
        self._buckets: "dict[str, TokenBucket]" = {}
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.rate is not None

    @property
    def durable(self) -> bool:
        """Whether budgets live in the journal rather than this process."""
        return self._store is not None

    def configure(self, tenant: str, rate: float, burst: float) -> None:
        """Give ``tenant`` a bespoke bucket, replacing any existing one."""
        if self._store is not None:
            self._store.configure_tenant(tenant, rate, burst)
            return
        with self._lock:
            self._buckets[tenant] = TokenBucket(rate, burst, clock=self._clock)

    def check(self, tenant: str) -> "tuple[bool, float]":
        """Charge ``tenant`` one token; see :meth:`TokenBucket.try_acquire`."""
        if not self.enabled:
            return True, 0.0
        if self._store is not None:
            return self._store.charge_tenant(tenant, self.rate, self.burst)
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, clock=self._clock)
                self._buckets[tenant] = bucket
        return bucket.try_acquire()

    def snapshot(self) -> dict:
        """``{tenant: bucket snapshot}`` for every tenant seen so far."""
        if self._store is not None:
            return self._store.tenant_snapshot()
        with self._lock:
            buckets = dict(self._buckets)
        return {tenant: bucket.snapshot() for tenant, bucket in buckets.items()}
