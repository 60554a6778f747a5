"""Per-invocation tracing: one span tree per module call.

The engine's telemetry (PR 1) answers *how much* — counters and latency
histograms over the whole run.  It cannot answer *where one slow or
failing invocation spent its time*: was it retry backoff, watchdog
budget, a conformance probe, or the supply-interface round trip itself?
Tracing answers that question.  Every invocation that flows through a
tracing-enabled :class:`~repro.engine.invoker.InvocationEngine` yields
one **span tree**::

    invoke  ret.get_uniprot_record        ok      3.41ms  cache=miss
      breaker                             ok      3.38ms
        retry                             ok      3.36ms
          watchdog                        ok      3.30ms
            conformance                   ok      3.21ms
              faults                      ok      3.10ms
                direct                    ok      3.02ms

The root span carries the correlation attributes (module id, provider,
cache/breaker disposition, retry attempts); each child is one invoker
layer with its own wall-clock cost and outcome, so per-layer overhead is
the *difference* between adjacent spans.  A retried call shows multiple
watchdog subtrees under the retry span; a conformance probe shows two
inner subtrees under the conformance span.

Design constraints, in order:

* **Zero cost when disabled.**  A tracer is threaded through the stack
  only when one is configured; without it the engine builds the exact
  pre-observability stack and the hot path performs no tracing work.
* **Cheap when enabled.**  The recorder exploits that a layer's inner
  spans always *complete* before the layer itself does: each thread
  keeps a flat ``pending`` list of completed spans, opening a span is
  just a clock read plus a list-length mark, and closing it claims
  everything recorded past the mark as children.  No span objects, no
  parent pointers and no locks exist on the hot path — one small tuple
  per span, built once at close time from the raw clock readings;
  milliseconds are computed when a tree is read, not while recording.
* **Thread-correct.**  The batch scheduler invokes from worker threads
  (each has its own ``pending`` list) and the watchdog runs the inner
  stack on its own worker thread; the spans recorded there are handed
  back to the caller through a :class:`_Fork` (:meth:`Tracer.fork` /
  :meth:`Tracer.join`) so the tree stays connected across the hop.
* **Abandonment-safe.**  A watchdog-abandoned call keeps running after
  its trace was exported; its late spans are dropped (and counted in
  ``late_spans``) instead of mutating an already-exported tree.
* **Bounded.**  Completed traces land in a ring buffer (``max_traces``)
  with an eviction counter (``dropped_traces``); a sink callback (the
  campaign flight recorder) can persist every trace as it completes.
  The ring stores the packed tuple form directly —
  tuples and dicts of atomics are *untracked* by CPython's garbage
  collector, so retaining a thousand trees does not tax every
  collection of an unrelated workload.

Packed form, position by position (see :func:`_unpack`)::

    (name, module_id, start, end, outcome, detail, attributes, children)

``start`` and ``end`` are readings of the tracer's clock; ``attributes``
is the root's sealed attribute dict (``()`` for a layer span).
"""

from __future__ import annotations

import contextvars
import threading
from collections import deque
from contextlib import contextmanager
from typing import Callable

from repro.engine.telemetry import default_clock

#: Layer names, outermost first, as they appear in a full span tree.
LAYERS: tuple[str, ...] = (
    "invoke",
    "breaker",
    "retry",
    "watchdog",
    "conformance",
    "faults",
    "direct",
)

#: Ambient correlation attributes merged into every root span opened
#: while the scope is active.  The serving layer uses this to stamp its
#: per-request trace id onto the engine invocations a request triggers,
#: so an access-log line joins against the span trees it caused.
_AMBIENT_ATTRIBUTES: "contextvars.ContextVar[tuple[tuple[str, object], ...]]" = (
    contextvars.ContextVar("repro_ambient_span_attributes", default=())
)

#: Set when the process first enters an ambient scope; until then a
#: root span skips the context-variable read.  It saves only that read:
#: before any scope is entered the variable holds its empty default in
#: every context, so no root span's attributes depend on the flag.
_ambient_in_use = False


@contextmanager
def ambient_span_attributes(**attributes):
    """Attach correlation attributes to all root spans opened in scope.

    Attributes are merged into the root span's attribute dict at
    :meth:`Tracer.open_root` time without clobbering engine-set keys;
    scopes nest (inner scopes add to, and may shadow, outer ones).  A
    context variable keeps the scope invisible to unrelated threads —
    exactly what a concurrent HTTP server needs, where many requests
    drive one shared engine at once.  Cost when unused: one context-var
    read per traced invocation, nothing at all on untraced engines or
    before the process first enters a scope.
    """
    global _ambient_in_use
    _ambient_in_use = True
    token = _AMBIENT_ATTRIBUTES.set(
        _AMBIENT_ATTRIBUTES.get() + tuple(attributes.items())
    )
    try:
        yield
    finally:
        _AMBIENT_ATTRIBUTES.reset(token)


class Span:
    """One timed operation inside an invocation.

    Spans are the *read-side* representation: the recorder itself works
    on packed tuples (the module docstring's wire layout) and only
    materializes ``Span`` trees when someone looks —
    :meth:`Tracer.traces`, the sink callback, or
    :func:`repro.obs.recorder.load_spans`.

    Attributes:
        name: The invoker layer (``invoke`` for the engine root,
            otherwise one of ``breaker`` / ``retry`` / ``watchdog`` /
            ``conformance`` / ``faults`` / ``direct``).
        module_id: The module the invocation concerns.
        start_ms: Start time in milliseconds on the tracer's clock —
            a shared monotonic origin, so spans of one process order
            and align across trees.
        duration_ms: Wall-clock cost.
        outcome: ``"ok"``, or the exception class name that crossed
            this layer.
        detail: Free-form context (the exception message, usually).
        attributes: Correlation data (provider, cache disposition,
            retry attempts, ...) — JSON-compatible scalar values only.
        children: Nested spans, completion order (sort by ``start_ms``
            for a timeline); an empty tuple for a leaf.
    """

    # Class-level defaults: assigned through an instance only when the
    # value differs (most spans are ok, detail-less leaves).
    duration_ms: float = 0.0
    outcome: str = "ok"
    detail: str = ""
    children: "tuple | list[Span]" = ()

    def __init__(
        self,
        name: str,
        module_id: str,
        start_ms: float,
        attributes: "dict | None" = None,
    ) -> None:
        self.name = name
        self.module_id = module_id
        self.start_ms = start_ms
        self.attributes = attributes if attributes is not None else {}

    def __repr__(self) -> str:  # debugging aid, not the wire format
        return (
            f"Span(name={self.name!r}, module_id={self.module_id!r}, "
            f"outcome={self.outcome!r}, duration_ms={self.duration_ms!r}, "
            f"children={len(self.children)})"
        )

    def __eq__(self, other) -> bool:
        """Structural equality over the serialized form (tests compare
        reconstructed trees against live ones)."""
        if not isinstance(other, Span):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    __hash__ = None  # mutable; unhashable like any dataclass with eq

    # ------------------------------------------------------------------
    @property
    def tree_size(self) -> int:
        """Spans in this subtree, the root included."""
        return 1 + sum(child.tree_size for child in self.children)

    def find(self, name: str) -> "list[Span]":
        """Every span named ``name`` in this subtree, depth-first."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found

    def walk(self, depth: int = 0):
        """Yield ``(depth, span)`` pairs depth-first, children by start
        time."""
        yield depth, self
        for child in sorted(self.children, key=lambda span: span.start_ms):
            yield from child.walk(depth + 1)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible form (the flight-recorder wire format)."""
        data: dict = {
            "name": self.name,
            "module_id": self.module_id,
            "start_ms": self.start_ms,
            "duration_ms": self.duration_ms,
            "outcome": self.outcome,
        }
        if self.detail:
            data["detail"] = self.detail
        if self.attributes:
            data["attributes"] = dict(self.attributes)
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span tree from its journaled form."""
        span = cls(
            name=data["name"],
            module_id=data["module_id"],
            start_ms=data["start_ms"],
            attributes=dict(data.get("attributes", {})),
        )
        span.duration_ms = data["duration_ms"]
        span.outcome = data["outcome"]
        detail = data.get("detail", "")
        if detail:
            span.detail = detail
        children = data.get("children")
        if children:
            span.children = [cls.from_dict(child) for child in children]
        return span


def _unpack(packed: tuple, origin: float) -> Span:
    """Materialize a :class:`Span` tree from its packed recorder form,
    timed in milliseconds since the tracer's ``origin``."""
    name, module_id, start, end, outcome, detail, attrs, children = packed
    start_ms = (start - origin) * 1000.0
    span = Span(name, module_id, start_ms, dict(attrs))
    span.duration_ms = (end - origin) * 1000.0 - start_ms
    if outcome != "ok":
        span.outcome = outcome
    if detail:
        span.detail = detail
    if children:
        span.children = [_unpack(child, origin) for child in children]
    return span


class _ThreadState:
    """One thread's recording state: its flat list of completed spans
    and the attribute dict of its open root span, if any."""

    __slots__ = ("pending", "root_attrs")

    def __init__(self) -> None:
        self.pending: "list[tuple]" = []
        self.root_attrs: "dict | None" = None


class _Local(threading.local):
    """Per-thread :class:`_ThreadState`, made on a thread's first use."""

    def __init__(self) -> None:
        self.state = _ThreadState()


class _Fork:
    """Hand-off point for spans recorded on a watchdog worker thread.

    The worker's completed spans cannot be claimed by the caller's
    ``pending`` list directly — the two threads race when the watchdog
    abandons the call.  The fork is the synchronization point: the
    worker deposits its spans (:meth:`Tracer.unseed`), the caller
    either claims them (:meth:`Tracer.join`) or marks the trace closed
    (:meth:`Tracer.abandon`), and whoever arrives second sees the
    other's decision under the tracer lock.
    """

    __slots__ = ("finished", "adopted")

    def __init__(self) -> None:
        self.finished = False
        self.adopted: tuple = ()


class Tracer:
    """Builds span trees around invocations, one tree per engine call.

    Thread model: every thread owns a flat ``pending`` list of completed
    spans; claiming children and recording a finished span touch only
    that list, and a finished trace is appended to the shared ring
    without a lock, so the hot path is lock-free.  The tracer-wide lock
    guards trimming and reading the ring and the watchdog hand-off.

    Args:
        clock: Monotonic clock shared with the engine, injectable for
            tests.
        sink: Called with every completed root span (the flight
            recorder); exceptions from the sink propagate to the
            invoking thread.
        max_traces: Ring-buffer capacity for completed traces kept in
            memory; older traces are evicted and counted in
            ``dropped_traces``.
    """

    def __init__(
        self,
        clock: Callable[[], float] = default_clock,
        sink: "Callable[[Span], None] | None" = None,
        max_traces: int = 1000,
    ) -> None:
        if max_traces < 1:
            raise ValueError("max_traces must be at least 1")
        self._clock = clock
        self.sink = sink
        self.max_traces = max_traces
        self.dropped_traces = 0
        self.late_spans = 0
        # Entries are packed tuples, kept off the garbage collector's
        # books (module docstring, "Bounded").  A finished trace is
        # appended without the lock (a deque append is atomic); the ring
        # is cut back to ``max_traces`` in batches, under the lock, once
        # it holds a quarter more.  Readers see what a ring evicting on
        # every append would hold (``_ring``): the newest ``max_traces``
        # traces and the exact eviction count.
        self._traces: "deque[tuple]" = deque()
        self._trim_at = max_traces + 1 + max_traces // 4
        self._lock = threading.Lock()
        self._local = _Local()
        self._origin = clock()

    # ------------------------------------------------------------------
    # The hot path: open/close for layer spans, the *_root variants for
    # the engine's enclosing span.  A token is ``(state, mark, start)``:
    # the opening thread's state (a span closes on the thread that
    # opened it, so closing needs no thread-local lookup), the
    # pending-list length at open time and the clock reading; a root's
    # token also carries its attribute dict.
    # ------------------------------------------------------------------
    def open(self) -> "tuple[_ThreadState, int, float]":
        """Open a layer span on this thread.  Lock-free."""
        state = self._local.state
        return state, len(state.pending), self._clock()

    def close(
        self,
        name: str,
        module_id: str,
        token: "tuple[_ThreadState, int, float]",
        outcome: str = "ok",
        detail: str = "",
    ) -> None:
        """Close a layer span: everything recorded past the token's
        mark completed inside this span and becomes its children.
        Lock-free."""
        end = self._clock()
        state, mark, start = token
        pending = state.pending
        if len(pending) > mark:
            children = tuple(pending[mark:])
            del pending[mark:]
        else:
            children = ()
        pending.append((name, module_id, start, end, outcome, detail, (), children))

    def open_root(self, attributes: dict) -> "tuple[_ThreadState, int, float, dict]":
        """Open the engine's enclosing span.  ``attributes`` is the
        live correlation dict — the engine annotates it during the call
        (cache disposition, retry count) and :meth:`close_root` seals
        it into the exported trace."""
        state = self._local.state
        if _ambient_in_use:
            for key, value in _AMBIENT_ATTRIBUTES.get():
                attributes.setdefault(key, value)
        state.root_attrs = attributes
        return state, len(state.pending), self._clock(), attributes

    def close_root(
        self,
        module_id: str,
        token: "tuple[_ThreadState, int, float, dict]",
        outcome: str = "ok",
        detail: str = "",
    ) -> None:
        """Close the enclosing span and export the completed trace:
        ring buffer (eviction counted) plus sink, if one is set.  The
        attribute dict is stored as it is: nothing writes to it once
        this thread's ``root_attrs`` no longer points at it."""
        end = self._clock()
        state, mark, start, attributes = token
        state.root_attrs = None
        pending = state.pending
        if len(pending) > mark:
            children = tuple(pending[mark:])
            del pending[mark:]
        else:
            children = ()
        packed = (
            "invoke", module_id, start, end, outcome, detail,
            attributes or (), children,
        )
        traces = self._traces
        traces.append(packed)
        if len(traces) > self._trim_at:
            with self._lock:
                self._trim()
        sink = self.sink
        if sink is not None:
            sink(_unpack(packed, self._origin))

    def _trim(self) -> None:
        """Evict the traces beyond ``max_traces``, oldest first, and
        count them.  The caller holds the lock."""
        traces = self._traces
        excess = len(traces) - self.max_traces
        for _ in range(excess):
            traces.popleft()
        if excess > 0:
            self.dropped_traces += excess

    def _ring(self) -> "tuple[tuple, int]":
        """What a ring evicting on every append would hold now: the
        newest ``max_traces`` traces, and its eviction count.  The caller
        holds the lock; the copy is one atomic read of the deque."""
        packed = tuple(self._traces)
        excess = max(0, len(packed) - self.max_traces)
        return packed[excess:], self.dropped_traces + excess

    def annotate_root(self, key: str, value) -> None:
        """Set an attribute on this thread's active root span, if any."""
        attrs = self._local.state.root_attrs
        if attrs is not None:
            attrs[key] = value

    def incr_root(self, key: str, amount: int = 1) -> None:
        """Increment a numeric attribute on this thread's active root
        span, if any (used for retry counting)."""
        attrs = self._local.state.root_attrs
        if attrs is not None:
            attrs[key] = attrs.get(key, 0) + amount

    # ------------------------------------------------------------------
    # Cross-thread hand-off (the watchdog hop)
    # ------------------------------------------------------------------
    def fork(self) -> _Fork:
        """Create the hand-off point for one watchdog worker.  Called
        on the waiting thread before the worker is spawned."""
        return _Fork()

    def seed(self, fork: _Fork) -> None:
        """Start recording on a watchdog worker thread.  The worker
        gets a fresh pending list — its spans belong to the fork, not
        to whatever a reused thread recorded before."""
        self._local.state.pending = []

    def unseed(self, fork: _Fork) -> None:
        """Deposit this worker thread's completed spans into the fork.
        If the caller already abandoned the call, the spans are late:
        dropped and counted, never attached to the exported trace."""
        state = self._local.state
        pending = state.pending
        state.pending = []
        if not pending:
            return
        with self._lock:
            if fork.finished:
                self.late_spans += len(pending)
            else:
                fork.adopted = tuple(pending)

    def join(self, fork: _Fork) -> None:
        """Claim the worker's deposited spans onto the calling thread
        (the watchdog's layer span then claims them as children)."""
        with self._lock:
            fork.finished = True
            adopted = fork.adopted
            fork.adopted = ()
        if adopted:
            self._local.state.pending.extend(adopted)

    def abandon(self, fork: _Fork) -> None:
        """Close the fork without claiming: the budget elapsed and the
        trace will be exported without the worker's spans.  A deposit
        that already arrived is late; later deposits will see the
        ``finished`` flag themselves."""
        with self._lock:
            fork.finished = True
            if fork.adopted:
                self.late_spans += len(fork.adopted)
                fork.adopted = ()

    # ------------------------------------------------------------------
    def wrap(self, layer: str, inner) -> "TracingInvoker":
        """Wrap ``inner`` so every call opens a ``layer`` span."""
        return TracingInvoker(self, layer, inner)

    def traces(self) -> "tuple[Span, ...]":
        """The completed root spans still in the ring buffer, oldest
        first.  Materialized from the packed form on every call — fresh
        trees each time, so mutating a returned span never corrupts
        the ring."""
        with self._lock:
            packed, _dropped = self._ring()
        return tuple(_unpack(entry, self._origin) for entry in packed)

    def clear(self) -> None:
        """Drop every completed trace (the counters survive)."""
        with self._lock:
            traces = self._traces
            present = len(traces)
            # popleft, not clear(): a trace appended meanwhile stays.
            for _ in range(present):
                traces.popleft()
            self.dropped_traces += max(0, present - self.max_traces)

    def snapshot(self) -> dict:
        """JSON-compatible tracer accounting."""
        with self._lock:
            packed, dropped = self._ring()
            return {
                "traces_kept": len(packed),
                "max_traces": self.max_traces,
                "dropped_traces": dropped,
                "late_spans": self.late_spans,
            }


class TracingInvoker:
    """Wraps one invoker layer so every call becomes a span.

    The wrapper is transparent: outputs and exceptions pass through
    untouched; the span records the layer's wall-clock cost and the
    exception class, if any, that crossed it.
    """

    def __init__(self, tracer: Tracer, layer: str, inner) -> None:
        self.tracer = tracer
        self.layer = layer
        self.inner = inner
        # Hot path: bind the methods once instead of three attribute
        # lookups per call.
        self._open = tracer.open
        self._close = tracer.close
        self._invoke = inner.invoke

    def invoke(self, module, ctx, bindings):
        token = self._open()
        module_id = module.module_id
        try:
            outputs = self._invoke(module, ctx, bindings)
        except BaseException as error:
            self._close(self.layer, module_id, token, type(error).__name__, str(error))
            raise
        self._close(self.layer, module_id, token, "ok")
        return outputs
