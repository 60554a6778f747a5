"""The invocation engine: the execution layer for module calls.

The generation heuristic (§3.2–3.3) is invocation-bound — it calls each
black-box module on the full cross-product of selected input values, and
§4 runs that over 252 modules.  This package is the single layer those
calls — and every other module call: workflow enactment, §6 matching
and repair, composition, the served endpoints — flow through::

    generator / enactor / matcher / composition advisor / service
            │
            ▼
    InvocationEngine        telemetry + module health around every call
        InvocationCache     (module_id, canonical bindings) → outcome
        CircuitBreakingInvoker  per-provider fast-fail (closed/open/half-open)
        RetryingInvoker     backoff + deadline for transient failures
        WatchdogInvoker     hard wall-clock budget, abandoned-call accounting
        ConformingInvoker   output validation + nondeterminism probes
        FaultInjectingInvoker   seeded decay weather for tests/benches
        DirectInvoker       the real supply-interface round trip
            │
            ▼
    invoke_via_interface (SOAP / REST / local program simulators)

plus a :class:`BatchScheduler` that fans generation over modules on a
thread pool while keeping reports bit-identical to a serial run.
"""

from repro.engine.breaker import (
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    CircuitBreakingInvoker,
    CircuitOpenError,
)
from repro.engine.cache import CachedOutcome, CacheStats, InvocationCache, canonical_key
from repro.engine.conformance import (
    ConformancePolicy,
    ConformanceStats,
    ConformingInvoker,
)
from repro.engine.faults import FaultInjectingInvoker, FaultPlan, InjectedFaultError
from repro.engine.health import HealthRecord, ModuleHealthRegistry
from repro.engine.invoker import (
    DirectInvoker,
    EngineConfig,
    InvocationEngine,
    Invoker,
)
from repro.engine.retry import DeadlineExceededError, RetryPolicy, RetryingInvoker
from repro.engine.scheduler import BatchScheduler
from repro.engine.telemetry import (
    LatencyHistogram,
    Telemetry,
    default_clock,
)
from repro.engine.watchdog import (
    WatchdogInvoker,
    WatchdogPolicy,
    WatchdogStats,
    deadline_scope,
    remaining_deadline,
)

__all__ = [
    "BatchScheduler",
    "BreakerPolicy",
    "BreakerState",
    "CachedOutcome",
    "CacheStats",
    "CircuitBreaker",
    "CircuitBreakingInvoker",
    "CircuitOpenError",
    "ConformancePolicy",
    "ConformanceStats",
    "ConformingInvoker",
    "DeadlineExceededError",
    "DirectInvoker",
    "EngineConfig",
    "FaultInjectingInvoker",
    "FaultPlan",
    "HealthRecord",
    "InjectedFaultError",
    "InvocationCache",
    "InvocationEngine",
    "Invoker",
    "LatencyHistogram",
    "ModuleHealthRegistry",
    "RetryingInvoker",
    "RetryPolicy",
    "Telemetry",
    "WatchdogInvoker",
    "WatchdogPolicy",
    "WatchdogStats",
    "canonical_key",
    "deadline_scope",
    "default_clock",
    "remaining_deadline",
]
