"""Longitudinal time-series sampling of campaigns and servers.

Everything the observability stack produced so far is point-in-time:
``engine.stats()`` is a snapshot, a span tree covers one invocation.
The monitoring loop of §6 asks *longitudinal* questions — is this
provider getting worse, is the campaign still making progress — and
those need a sequence of snapshots with deltas derived between them.

:class:`Sampler` periodically captures a compact **sample** — for a
campaign (:func:`take_sample`) the engine's cumulative counters,
latency histogram, breaker states, per-provider health rollups,
conformance accounting and coverage progress; for a server the HTTP
accounting.  Samples land in two places:

* a bounded in-memory :class:`TimeSeriesRing` (the working set for
  burn-rate evaluation and the live dashboard), and
* the ``campaign_snapshots`` journal table, one committed transaction
  per sample — the same write-ahead discipline as the span table,
  so a SIGKILLed campaign leaves a reconstructable timeline.

Samples are *observations*: they never feed report reassembly, so
checkpoint/resume byte-identity is untouched.  All derivations
(:func:`counter_delta`, :func:`provider_deltas`, :func:`latency_over`,
:func:`sample_rates`) work on **cumulative** values between two
samples, which makes them robust to missed rounds — a wider gap is
just a wider window.

Timestamps are milliseconds on the monotonic clock, relative to the
sampler's construction.  Every process start begins a fresh **run
segment** of its **slot** (a fleet replica's index; campaigns have
none), and ``snap_seq`` in the journal orders samples globally.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable

from repro.engine.telemetry import default_clock

#: Default bound of the in-memory ring: at one sample per probe round a
#: long campaign keeps hours of history in a few hundred KB.
DEFAULT_RING_SIZE = 512


class TimeSeriesRing:
    """A bounded ring of samples with an eviction counter.

    Once full, each new sample silently displaces the oldest and
    ``dropped_samples`` records how much history the window has shed.  Not thread-safe on its own — the
    sampler serializes appends.
    """

    def __init__(self, maxlen: int = DEFAULT_RING_SIZE) -> None:
        if maxlen < 2:
            raise ValueError("ring must hold at least 2 samples")
        self.maxlen = maxlen
        self.dropped_samples = 0
        self._samples: deque[dict] = deque(maxlen=maxlen)

    def __len__(self) -> int:
        return len(self._samples)

    def append(self, sample: dict) -> None:
        if len(self._samples) == self.maxlen:
            self.dropped_samples += 1
        self._samples.append(sample)

    def samples(self) -> "tuple[dict, ...]":
        return tuple(self._samples)

    def last(self) -> "dict | None":
        return self._samples[-1] if self._samples else None

    def window(self, n: int) -> "list[dict]":
        """The trailing ``min(n, len)`` samples, oldest first."""
        if n < 1:
            raise ValueError("window must span at least 1 sample")
        return list(self._samples)[-n:]


# ----------------------------------------------------------------------
# Delta / rate derivation over cumulative samples.

def counter_delta(old: dict, new: dict, name: str) -> int:
    """Increase of one engine counter between two samples."""
    return new["counters"].get(name, 0) - old["counters"].get(name, 0)


def provider_deltas(old: dict, new: dict) -> "dict[str, dict]":
    """Per-provider ``calls`` / ``answered`` increases between samples.

    Providers first observed inside the window count from zero.
    """
    deltas: dict[str, dict] = {}
    before = old["health"].get("providers", {})
    for provider, entry in new["health"].get("providers", {}).items():
        prior = before.get(provider, {})
        deltas[provider] = {
            "calls": entry["calls"] - prior.get("calls", 0),
            "answered": entry["answered"] - prior.get("answered", 0),
        }
    return deltas


def latency_over(old: dict, new: dict, bound_ms: float) -> "tuple[int, int]":
    """``(calls_over_bound, calls_total)`` within the window.

    Derived from the cumulative histogram: the count at the largest
    bucket bound not exceeding ``bound_ms`` is the number of calls at or
    under the objective; the rest of the window's calls were over.
    """
    total = new["latency"]["count"] - old["latency"]["count"]
    if total <= 0:
        return 0, 0
    under_new = under_old = 0
    old_buckets = dict_pairs(old["latency"]["cumulative_buckets"])
    for label, cumulative in new["latency"]["cumulative_buckets"]:
        if label != "+Inf" and float(label) <= bound_ms:
            under_new = cumulative
            under_old = old_buckets.get(label, 0)
    under = under_new - under_old
    return max(0, total - under), total


def dict_pairs(pairs: "list") -> "dict[str, int]":
    """``[(label, count), ...]`` (or JSON list-of-lists) as a dict."""
    return {label: count for label, count in pairs}


def sample_rates(old: dict, new: dict) -> dict:
    """Per-second rates between two samples of the same run segment.

    Returns an empty dict when the samples come from different
    processes (another slot, or a resume boundary where the monotonic
    clock restarted) or no time elapsed.
    """
    if new.get("run") != old.get("run") or slot_of(new) != slot_of(old):
        return {}
    elapsed_s = (new["t_ms"] - old["t_ms"]) / 1000.0
    if elapsed_s <= 0:
        return {}
    calls = counter_delta(old, new, "calls")
    done = new["progress"]["n_done"] - old["progress"]["n_done"]
    return {
        "elapsed_s": elapsed_s,
        "calls_per_s": calls / elapsed_s,
        "ok_per_s": counter_delta(old, new, "ok") / elapsed_s,
        "cache_hits_per_s": counter_delta(old, new, "cache_hits") / elapsed_s,
        "done_per_s": done / elapsed_s,
    }


# ----------------------------------------------------------------------

def take_sample(engine, progress: dict) -> dict:
    """One compact, JSON-compatible body of engine + campaign state.

    Args:
        engine: The :class:`~repro.engine.invoker.InvocationEngine`.
        progress: ``{"n_planned", "n_done", "n_skipped"}`` coverage
            counts (``n_pending`` is derived).
    """
    stats = engine.stats()
    latency = stats["latency"]
    n_planned = progress.get("n_planned", 0)
    n_done = progress.get("n_done", 0)
    n_skipped = progress.get("n_skipped", 0)
    return {
        "counters": dict(stats["counters"]),
        "latency": {
            "count": latency["count"],
            "sum_ms": latency["sum_ms"],
            "p95_ms": latency["p95_ms"],
            "max_ms": latency["max_ms"],
            "cumulative_buckets": [
                list(pair) for pair in latency["cumulative_buckets"]
            ],
        },
        "breaker": stats.get("breaker", {}),
        "health": stats.get("health", {}),
        "conformance": stats.get("conformance"),
        "progress": {
            "n_planned": n_planned,
            "n_done": n_done,
            "n_skipped": n_skipped,
            "n_pending": max(0, n_planned - n_done - n_skipped),
        },
    }


class Sampler:
    """Periodic sampling: stamp, ring, journal, and SLO-evaluate.

    The one sampler of campaigns and servers.  Each :meth:`sample`
    stamps ``source``'s body with ``seq`` / ``run`` / ``t_ms`` (and
    ``slot``), rings it, journals it in its own transaction, and
    re-evaluates the SLOs, journaling any alert transitions.

    Args:
        source: Returns one sample body: :func:`take_sample` for a
            campaign, :func:`repro.serve.sampling.http_sample` for a server.
            :meth:`sample` passes its arguments on.
        journal: A campaign journal, or ``None`` for a purely in-memory
            sampler.
        campaign_id: The campaign the samples are journaled under.
        slot: The process slot in a fleet (the replica index), stamped
            as ``slot`` on every sample and journaled alert event.
            ``None`` for campaigns and standalone servers, which stamp
            no slot.
        evaluator: Optional :class:`repro.obs.slo.SLOEvaluator`.
        ring: The ring to fill (a fresh default-sized one otherwise).
        clock: Monotonic clock in fractional seconds.
    """

    def __init__(
        self,
        source: "Callable[..., dict]",
        journal=None,
        campaign_id: str = "",
        slot: "int | None" = None,
        evaluator=None,
        ring: "TimeSeriesRing | None" = None,
        clock: "Callable[[], float]" = default_clock,
    ) -> None:
        self.source = source
        self.journal = journal if campaign_id else None
        self.campaign_id = campaign_id
        self.slot = slot
        self.evaluator = evaluator
        self.ring = ring if ring is not None else TimeSeriesRing()
        self._clock = clock
        self._t0 = clock()
        self._seq = 0
        self._thread: "threading.Thread | None" = None
        self._stop = threading.Event()
        # Every process start is a new run segment of its slot, one past
        # the highest journaled: the monotonic clock and the cumulative
        # counters restarted with the process, so deltas must never
        # straddle the boundary.
        self.run = 0
        if self.journal is not None:
            last = self.journal.last_run(campaign_id, slot)
            self.run = 0 if last is None else last + 1

    def elapsed_ms(self) -> float:
        return (self._clock() - self._t0) * 1000.0

    def sample(self, *args) -> dict:
        """Capture, stamp, ring, journal, and evaluate one sample."""
        sample = {
            "seq": self._seq,
            "run": self.run,
            "t_ms": self.elapsed_ms(),
            **self.source(*args),
        }
        if self.slot is not None:
            sample["slot"] = self.slot
        self._seq += 1
        self.ring.append(sample)
        if self.journal is not None:
            self.journal.record_snapshot(self.campaign_id, sample["t_ms"], sample)
        if self.evaluator is not None:
            for event in self.evaluator.evaluate(self.ring):
                if self.slot is not None:
                    event["slot"] = self.slot
                if self.journal is not None:
                    self.journal.record_alert(self.campaign_id, event)
        return sample

    def start(self, interval: float) -> None:
        """Sample every ``interval`` seconds on a daemon thread."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        if self._thread is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(interval):
                self.sample()

        self._thread = threading.Thread(
            target=loop, name="repro-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None


# ----------------------------------------------------------------------
# Readers.  Counters are cumulative per process, so every reader folds
# per slot (and, through ``sample_rates`` / ``window_burns``, per run)
# before it combines anything: no reader diffs two processes.

def slot_of(sample: dict) -> "int | None":
    """The process slot a sample came from.  Fleet samples journaled by
    older builds carry ``replica`` instead of ``slot``; campaign and
    standalone-server samples carry neither."""
    return sample.get("slot", sample.get("replica"))


def by_slot(samples: "list[dict]") -> "dict[int | None, list[dict]]":
    """Samples grouped per process slot, each group in recording order."""
    groups: dict = {}
    for sample in samples:
        groups.setdefault(slot_of(sample), []).append(sample)
    return groups


def rebuild_ring(
    journal,
    campaign_id: str,
    maxlen: int = DEFAULT_RING_SIZE,
    slot: "int | None" = None,
) -> TimeSeriesRing:
    """Reconstruct one slot's ring (trailing window) from the journal
    alone — the crash-recovery path: a SIGKILLed process loses its ring,
    but every journaled sample was its own committed transaction."""
    ring = TimeSeriesRing(maxlen=maxlen)
    for sample in by_slot(journal.snapshots(campaign_id)).get(slot, []):
        ring.append(sample)
    return ring


def fleet_rates(samples: "list[dict]") -> dict:
    """``calls_per_s`` / ``done_per_s`` of a timeline: the sum over
    slots of each slot's two newest samples' :func:`sample_rates`.
    Empty when no slot has two newest samples in one run segment."""
    rates = [
        sample_rates(*group[-2:])
        for group in by_slot(samples).values()
        if len(group) >= 2
    ]
    rates = [rate for rate in rates if rate]
    if not rates:
        return {}
    return {
        key: sum(rate[key] for rate in rates)
        for key in ("calls_per_s", "done_per_s")
    }


def render_timeline(samples: "list[dict]", limit: int = 12) -> str:
    """Operator-facing condensed timeline of journaled samples."""
    if not samples:
        return "No snapshots journaled."
    lines = [f"Campaign timeline — {len(samples)} samples"]
    shown = samples[-limit:]
    if len(shown) < len(samples):
        lines.append(f"  ... {len(samples) - len(shown)} earlier samples elided")
    for sample in shown:
        progress = sample["progress"]
        counters = sample["counters"]
        lines.append(
            f"  run {sample['run']} t+{sample['t_ms'] / 1000.0:7.2f}s  "
            f"done {progress['n_done']}/{progress['n_planned']} "
            f"(skipped {progress['n_skipped']})  "
            f"calls {counters.get('calls', 0)}  "
            f"ok {counters.get('ok', 0)}"
        )
    return "\n".join(lines)

