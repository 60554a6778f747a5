"""Longitudinal time-series sampling of a running campaign.

Everything the observability stack produced so far is point-in-time:
``engine.stats()`` is a snapshot, a span tree covers one invocation.
The monitoring loop of §6 asks *longitudinal* questions — is this
provider getting worse, is the campaign still making progress — and
those need a sequence of snapshots with deltas derived between them.

:class:`CampaignSampler` periodically captures a compact **sample** of
the engine's cumulative counters, latency histogram, breaker states,
per-provider health rollups, conformance accounting, and campaign
coverage progress.  Samples land in two places:

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

Timestamps are milliseconds on the engine's monotonic clock, relative
to the sampler's construction.  A resumed campaign starts a fresh
**run segment** (``run`` increments, ``t_ms`` restarts near zero);
``snap_seq`` in the journal orders samples globally across segments.
"""

from __future__ import annotations

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

    Returns an empty dict when the samples span a resume boundary (the
    monotonic clock restarted) or no time elapsed.
    """
    if new.get("run") != old.get("run"):
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

def take_sample(engine, progress: dict, t_ms: float, run: int, seq: int) -> dict:
    """One compact, JSON-compatible snapshot of engine + campaign state.

    Args:
        engine: The :class:`~repro.engine.invoker.InvocationEngine`.
        progress: ``{"n_planned", "n_done", "n_skipped"}`` coverage
            counts (``n_pending`` is derived).
        t_ms: Milliseconds since the sampler was constructed.
        run: The run segment (0 for a fresh campaign, +1 per resume).
        seq: Sample ordinal within this segment.
    """
    stats = engine.stats()
    latency = stats["latency"]
    n_planned = progress.get("n_planned", 0)
    n_done = progress.get("n_done", 0)
    n_skipped = progress.get("n_skipped", 0)
    sample = {
        "seq": seq,
        "run": run,
        "t_ms": t_ms,
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
    return sample


class CampaignSampler:
    """Periodic sampler wiring engine + journal + SLO evaluation together.

    Each :meth:`sample` call appends to the in-memory ring, journals the
    sample in its own committed transaction, and (when an evaluator is
    attached) re-evaluates every SLO over the updated ring, journaling
    any alert transitions.

    Args:
        engine: The engine to snapshot.
        journal: A campaign journal (anything with ``record_snapshot`` /
            ``record_alert`` / ``snapshot_count``), or ``None`` for a
            purely in-memory sampler.
        campaign_id: The campaign the samples belong to.
        evaluator: Optional :class:`repro.obs.slo.SLOEvaluator`.
        ring: The ring to fill (a fresh default-sized one otherwise).
        clock: Monotonic clock in fractional seconds.
    """

    def __init__(
        self,
        engine,
        journal=None,
        campaign_id: str = "",
        evaluator=None,
        ring: "TimeSeriesRing | None" = None,
        clock: "Callable[[], float]" = default_clock,
    ) -> None:
        self.engine = engine
        self.journal = journal
        self.campaign_id = campaign_id
        self.evaluator = evaluator
        self.ring = ring if ring is not None else TimeSeriesRing()
        self._clock = clock
        self._t0 = clock()
        self._seq = 0
        # A resumed campaign's samples form a new run segment: the
        # monotonic clock restarted with the process, so deltas must
        # never straddle the boundary.
        self.run = 0
        if journal is not None and campaign_id:
            self.run = _next_run(journal.snapshots(campaign_id))

    def elapsed_ms(self) -> float:
        return (self._clock() - self._t0) * 1000.0

    def sample(self, progress: "dict | None" = None) -> dict:
        """Capture, ring, journal, and evaluate one sample."""
        if progress is None and self.journal is not None and self.campaign_id:
            counts = self.journal.progress_counts(self.campaign_id)
            meta = self.journal.meta(self.campaign_id)
            progress = {
                "n_planned": len(meta.module_ids),
                "n_done": counts["n_done"],
                "n_skipped": counts["n_skipped"],
            }
        sample = take_sample(
            self.engine,
            progress or {},
            t_ms=self.elapsed_ms(),
            run=self.run,
            seq=self._seq,
        )
        self._seq += 1
        self.ring.append(sample)
        if self.journal is not None and self.campaign_id:
            self.journal.record_snapshot(
                self.campaign_id, sample["t_ms"], sample
            )
        if self.evaluator is not None:
            events = self.evaluator.evaluate(self.ring)
            if self.journal is not None and self.campaign_id:
                for event in events:
                    self.journal.record_alert(self.campaign_id, event)
        return sample


def _next_run(existing: "list[dict]") -> int:
    """The run segment a new sampler should stamp, given journaled
    samples: one past the highest segment already recorded."""
    runs = [sample.get("run", 0) for sample in existing]
    return (max(runs) + 1) if runs else 0


def load_snapshots(journal, campaign_id: str) -> "list[dict]":
    """The campaign's full journaled timeline, in recording order.

    This is the crash-recovery path: a SIGKILLed process loses its ring,
    but every journaled sample was its own committed transaction.
    """
    return journal.snapshots(campaign_id)


def rebuild_ring(
    journal, campaign_id: str, maxlen: int = DEFAULT_RING_SIZE
) -> TimeSeriesRing:
    """Reconstruct a ring (trailing window) from the journal alone."""
    ring = TimeSeriesRing(maxlen=maxlen)
    for sample in load_snapshots(journal, campaign_id):
        ring.append(sample)
    return ring


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

