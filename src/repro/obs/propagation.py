"""Cross-process trace propagation: one trace id across the fleet.

PR 4's tracer gives every process its own span trees; PR 6's server
stamps a per-request ``http_trace_id`` on the spans one replica records.
Neither survives a process boundary: a request load-balanced across a
SO_REUSEPORT fleet, or a campaign fanned out over shard workers, leaves
span fragments in several journals with nothing to join them on.

This module is the joining key.  A :class:`TraceContext` is a
W3C-traceparent-style triple — trace id, parent span id, sampled flag —
that crosses the two process boundaries the system has:

* **HTTP** — clients send ``traceparent`` (the W3C form) or a bare
  ``X-Trace-Id``; :func:`extract_trace_context` validates and
  normalizes it (:func:`normalize_trace_id` bounds cardinality: hex
  only, at most :data:`TRACE_ID_MAX_LEN` chars) and the replica enters
  a :func:`propagation_scope` so every engine span the request triggers
  carries ``(trace_id, process_role, replica)``.
* **spawn** — the campaign supervisor puts ``context.to_dict()`` in
  the picklable worker spec; :func:`repro.campaign.worker.shard_worker_main`
  rebuilds it and enters a scope with ``process_role="shard-worker"``
  and its shard id.

The scope itself is just :func:`~repro.obs.tracing.ambient_span_attributes`
— the existing contextvar merge at ``Tracer.open_root`` time — so the
hot path cost is unchanged and untraced engines pay nothing.  Fleet
trace assembly (:mod:`repro.obs.aggregate`) then stitches one logical
trace back together by grouping journaled spans on ``trace_id``.
"""

from __future__ import annotations

import hashlib
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs.tracing import ambient_span_attributes

#: Upper bound on an accepted trace id, in characters.  Trace ids land
#: in span journals and (potentially) metric labels; a hostile client
#: must not be able to bloat either with kilobyte ids.
TRACE_ID_MAX_LEN = 64

_HEX_DIGITS = frozenset("0123456789abcdef")


def normalize_trace_id(raw: "str | None") -> str:
    """Normalize a client-supplied trace id; ``""`` when unusable.

    The cardinality bound of the satellite task: lowercase, strip every
    non-hex character, truncate to :data:`TRACE_ID_MAX_LEN`.  A value
    with no hex digits at all (or ``None``) normalizes to the empty
    string — the caller falls back to a server-generated id instead of
    journaling attacker-controlled bytes.
    """
    if not raw:
        return ""
    kept = [ch for ch in raw.strip().lower() if ch in _HEX_DIGITS]
    return "".join(kept[:TRACE_ID_MAX_LEN])


def _pid_entropy(counter: int) -> str:
    """A 32-hex trace id unique across fleet processes.

    ``os.urandom`` keeps ids collision-free across replicas that share
    nothing but the journal; the pid and counter make the id readable
    in logs (``...<pid hex><seq hex>`` suffix) without weakening
    uniqueness.
    """
    random_part = os.urandom(10).hex()  # 20 hex chars
    return f"{random_part}{os.getpid() & 0xFFFFFF:06x}{counter & 0xFFFFFF:06x}"


class TraceIdGenerator:
    """Generates fleet-unique trace and span ids.

    Each process keeps its own instance; ids embed the pid, so two
    replicas answering requests concurrently can never mint the same
    trace id the way the old per-process ``req-%06d`` counter did.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seq = 0

    def trace_id(self) -> str:
        with self._lock:
            self._seq += 1
            seq = self._seq
        return _pid_entropy(seq)

    def span_id(self) -> str:
        """A 16-hex span id (the traceparent ``parent-id`` field)."""
        with self._lock:
            self._seq += 1
            seq = self._seq
        return f"{int.from_bytes(os.urandom(5), 'big'):010x}{seq & 0xFFFFFF:06x}"


@dataclass(frozen=True)
class TraceContext:
    """The propagated triple: what crosses a process boundary.

    Attributes:
        trace_id: Joins every span of one logical operation, fleet-wide.
            Always normalized (hex, bounded length).
        parent_span_id: The 16-hex id of the span in the *sending*
            process that caused this hop; ``""`` for a trace root.
        sampled: Whether downstream processes should record spans.  The
            flag crosses the boundary so a future head-sampling policy
            is one flip away; today every context is sampled.
    """

    trace_id: str
    parent_span_id: str = ""
    sampled: bool = True

    # ------------------------------------------------------------------
    # Wire forms
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Picklable/JSON form for the spawn boundary."""
        return {
            "trace_id": self.trace_id,
            "parent_span_id": self.parent_span_id,
            "sampled": self.sampled,
        }

    @classmethod
    def from_dict(cls, data: "dict | None") -> "TraceContext | None":
        """Rebuild from :meth:`to_dict`; ``None`` passes through so the
        worker spec can simply omit the key."""
        if not data:
            return None
        return cls(
            trace_id=normalize_trace_id(str(data.get("trace_id", ""))),
            parent_span_id=normalize_trace_id(
                str(data.get("parent_span_id", ""))
            ),
            sampled=bool(data.get("sampled", True)),
        )

    def child(self, span_id: str) -> "TraceContext":
        """The context to hand the *next* hop: same trace, this
        process's span as the parent."""
        return TraceContext(
            trace_id=self.trace_id,
            parent_span_id=normalize_trace_id(span_id),
            sampled=self.sampled,
        )


def campaign_trace_id(campaign_id: str) -> str:
    """The deterministic trace id of one campaign.

    A campaign's trace must survive the supervisor: ``resume`` in a
    fresh process — after a SIGKILL — has nothing but the journal, so
    the id is *derived* (a 32-hex digest of the campaign id), not
    minted.  Every worker attempt of every shard, across any number of
    supervisor incarnations, stamps the same id, and the fleet trace
    assembles from the journals alone.
    """
    digest = hashlib.sha256(
        f"repro-campaign:{campaign_id}".encode("utf-8")
    ).hexdigest()
    return digest[:32]


def parse_traceparent(value: "str | None") -> "TraceContext | None":
    """Parse a W3C ``traceparent`` header; ``None`` when malformed.

    Accepts the ``00-<32 hex>-<16 hex>-<2 hex>`` layout.  All-zero
    trace or parent ids are invalid per the spec and rejected; an
    unknown version is tolerated as long as the field layout matches
    (the spec's forward-compatibility rule).
    """
    if not value:
        return None
    parts = value.strip().lower().split("-")
    if len(parts) < 4:
        return None
    version, trace, parent, flags = parts[0], parts[1], parts[2], parts[3]
    if len(version) != 2 or not _all_hex(version) or version == "ff":
        return None
    if len(trace) != 32 or not _all_hex(trace) or trace == "0" * 32:
        return None
    if len(parent) != 16 or not _all_hex(parent) or parent == "0" * 16:
        return None
    if len(flags) != 2 or not _all_hex(flags):
        return None
    sampled = bool(int(flags, 16) & 0x01)
    return TraceContext(trace_id=trace, parent_span_id=parent, sampled=sampled)


def _all_hex(text: str) -> bool:
    return bool(text) and all(ch in _HEX_DIGITS for ch in text)


def extract_trace_context(
    headers, generator: "TraceIdGenerator | None" = None
) -> "tuple[TraceContext, bool]":
    """Build the request's trace context from its HTTP headers.

    Precedence: a valid ``traceparent`` wins (full W3C triple), then a
    bare ``X-Trace-Id`` (normalized, no parent), then a freshly
    generated id.  Returns ``(context, client_supplied)`` — the flag
    feeds the access log so operators can tell propagated traces from
    server-minted ones.

    Args:
        headers: Any mapping with a ``.get`` accepting a header name
            (``http.server`` passes an ``email.message.Message``).
        generator: Id mint for the fallback; a fresh one per call when
            omitted (tests).
    """
    parsed = parse_traceparent(headers.get("traceparent"))
    if parsed is not None and parsed.trace_id:
        return parsed, True
    normalized = normalize_trace_id(headers.get("X-Trace-Id"))
    if normalized:
        return TraceContext(trace_id=normalized), True
    generator = generator if generator is not None else TraceIdGenerator()
    return TraceContext(trace_id=generator.trace_id()), False


@contextmanager
def propagation_scope(
    context: "TraceContext | None",
    process_role: str,
    process_id: "int | str | None" = None,
    **extra,
):
    """Enter the ambient scope that stamps propagated identity on spans.

    Every root span an engine opens inside the scope carries
    ``trace_id``, ``process_role`` (``"replica"`` / ``"shard-worker"``
    / ``"supervisor"`` / ``"cli"``), and — when given — the replica or
    shard number as ``process_id``, plus the parent span id when the
    context records one.  A ``None`` context degrades to a no-op so
    call sites need no conditional.
    """
    if context is None or not context.trace_id:
        yield
        return
    attributes: dict = {
        "trace_id": context.trace_id,
        "process_role": process_role,
    }
    if process_id is not None:
        attributes["process_id"] = process_id
    if context.parent_span_id:
        attributes["parent_span_id"] = context.parent_span_id
    attributes.update(extra)
    with ambient_span_attributes(**attributes):
        yield


__all__ = [
    "TRACE_ID_MAX_LEN",
    "TraceContext",
    "TraceIdGenerator",
    "campaign_trace_id",
    "extract_trace_context",
    "normalize_trace_id",
    "parse_traceparent",
    "propagation_scope",
]
