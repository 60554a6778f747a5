"""Invocation telemetry: counters and a latency histogram.

Harvesting data examples over real provider endpoints (§4) is an
invocation-bound workload; the telemetry layer is the accounting the
engine keeps so a harvesting run can report *where the time went* —
how many calls were served, how many failed transiently vs. permanently,
how well the cache absorbed repeats, and the shape of the latency
distribution.  Everything here is thread-safe: the scheduler records
from worker threads concurrently.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left

#: The engine-wide monotonic clock, in fractional seconds.  Everything
#: that timestamps or measures an invocation (the engine itself, the
#: service bus's ``duration_ms``) goes through this indirection so tests
#: can substitute a fake clock.
default_clock = time.perf_counter


class LatencyHistogram:
    """A fixed-bucket latency histogram (milliseconds).

    Buckets follow the usual sub-millisecond-to-seconds progression of
    service monitoring systems; quantiles are estimated from bucket
    upper bounds, which is as much resolution as an accounting report
    needs.
    """

    BOUNDS_MS: tuple[float, ...] = (
        0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
        250.0, 500.0, 1000.0,
    )

    def __init__(self) -> None:
        self._counts = [0] * (len(self.BOUNDS_MS) + 1)
        self.count = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def record(self, latency_ms: float) -> None:
        # A sample lands in the first bucket whose bound it does not
        # exceed.  NaN exceeds no bound yet fails every ``<=`` test, so
        # it belongs in the overflow bucket; bisect alone would file it
        # under the first.
        index = bisect_left(self.BOUNDS_MS, latency_ms)
        if latency_ms != latency_ms:
            index = -1
        self._counts[index] += 1
        self.count += 1
        self.sum_ms += latency_ms
        self.max_ms = max(self.max_ms, latency_ms)

    @property
    def mean_ms(self) -> float:
        return self.sum_ms / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile sample
        (the observed maximum for the overflow bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self._counts):
            seen += bucket_count
            if seen >= rank and bucket_count:
                if index < len(self.BOUNDS_MS):
                    return self.BOUNDS_MS[index]
                return self.max_ms
        return self.max_ms

    def buckets(self) -> "dict[str, int]":
        """Non-empty buckets, labelled by their upper bound."""
        labels = [f"<={bound:g}ms" for bound in self.BOUNDS_MS] + ["inf"]
        return {
            label: count
            for label, count in zip(labels, self._counts)
            if count
        }

    def cumulative_buckets(self) -> "list[tuple[str, int]]":
        """Every bucket with its cumulative count, Prometheus-style:
        ``[("0.05", n), ..., ("1000", n), ("+Inf", total)]``.  The
        ``+Inf`` entry always equals :attr:`count`."""
        cumulative: "list[tuple[str, int]]" = []
        seen = 0
        for bound, bucket_count in zip(self.BOUNDS_MS, self._counts):
            seen += bucket_count
            cumulative.append((f"{bound:g}", seen))
        cumulative.append(("+Inf", self.count))
        return cumulative

    @classmethod
    def from_snapshot(cls, latency: dict) -> "LatencyHistogram":
        """Rebuild a histogram from a snapshot's ``latency`` section.

        The per-bucket counts are recovered by differencing the
        cumulative buckets, so a histogram round-trips through
        ``snapshot()`` exactly — the basis for merging per-worker
        telemetry snapshots without shared memory.
        """
        histogram = cls()
        cumulative = latency.get("cumulative_buckets") or []
        previous = 0
        for index, (_bound, seen) in enumerate(cumulative):
            histogram._counts[index] = seen - previous
            previous = seen
        # The +Inf entry equals the total count; the overflow bucket is
        # whatever the bounded buckets did not absorb.
        histogram.count = latency.get("count", previous)
        histogram.sum_ms = latency.get("sum_ms", 0.0)
        histogram.max_ms = latency.get("max_ms", 0.0)
        return histogram

    def absorb(self, other: "LatencyHistogram") -> None:
        """Add another histogram's samples into this one."""
        for index, bucket_count in enumerate(other._counts):
            self._counts[index] += bucket_count
        self.count += other.count
        self.sum_ms += other.sum_ms
        self.max_ms = max(self.max_ms, other.max_ms)


class Telemetry:
    """Counters + latency histogram.

    Every event kind the engine reports has its own counter; the
    per-call record (cache disposition, retries, outcome, latency)
    lives on the root span when tracing is on
    (:mod:`repro.obs.tracing`).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self.histogram = LatencyHistogram()

    # ------------------------------------------------------------------
    def account(self, counter: str, latency_ms: "float | None" = None) -> None:
        """Bump ``counter`` and, for a finished call (``latency_ms``
        given), record its latency — one lock for the whole accounting
        of one outcome.  Counters and latencies have no other entry
        point."""
        with self._lock:
            self._counters[counter] = self._counters.get(counter, 0) + 1
            if latency_ms is not None:
                self.histogram.record(latency_ms)

    # ------------------------------------------------------------------
    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def counters(self) -> "dict[str, int]":
        with self._lock:
            return dict(self._counters)

    def snapshot(self) -> dict:
        """A JSON-compatible snapshot of every metric."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "latency": {
                    "count": self.histogram.count,
                    "sum_ms": self.histogram.sum_ms,
                    "mean_ms": self.histogram.mean_ms,
                    "p50_ms": self.histogram.quantile(0.5),
                    "p95_ms": self.histogram.quantile(0.95),
                    "max_ms": self.histogram.max_ms,
                    "buckets": self.histogram.buckets(),
                    "cumulative_buckets": [
                        list(pair)
                        for pair in self.histogram.cumulative_buckets()
                    ],
                },
            }

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The invocation-cost section of the reproduction report."""
        snap = self.snapshot()
        counters = snap["counters"]
        calls = counters.get("calls", 0)
        lines = [
            "Invocation engine — cost accounting",
            f"  module calls:    {calls} "
            f"({counters.get('ok', 0)} ok, "
            f"{counters.get('invalid', 0)} invalid, "
            f"{counters.get('unavailable', 0)} unavailable, "
            f"{counters.get('timeout', 0)} timed out, "
            f"{counters.get('malformed', 0)} malformed)",
            f"  cache:           {counters.get('cache_hits', 0)} hits "
            f"({counters.get('cache_negative_hits', 0)} negative) / "
            f"{counters.get('cache_misses', 0)} misses, "
            f"{counters.get('cache_evictions', 0)} evictions",
            f"  retries:         {counters.get('retries', 0)} "
            f"({counters.get('retries_exhausted', 0)} exhausted, "
            f"{counters.get('deadlines_exceeded', 0)} past deadline)",
            f"  injected faults: {counters.get('faults_injected', 0)}",
        ]
        latency = snap["latency"]
        if latency["count"]:
            lines.append(
                f"  latency:         mean {latency['mean_ms']:.3f}ms  "
                f"p50 {latency['p50_ms']:.3g}ms  p95 {latency['p95_ms']:.3g}ms  "
                f"max {latency['max_ms']:.3f}ms"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Per-worker snapshot merging (sharded multi-process campaigns)
# ----------------------------------------------------------------------
#: Circuit-state severity for merging per-worker breaker snapshots: a
#: provider reported open by any worker is open in the merged view.
_BREAKER_SEVERITY = {"closed": 0, "half-open": 1, "open": 2}


def merge_stats_snapshots(snapshots: "list[dict]") -> dict:
    """Merge per-worker ``InvocationEngine.stats()`` snapshots.

    Sharded campaigns keep no shared-memory telemetry: every worker
    process accounts into its own engine and journals the snapshot at
    checkpoint boundaries (heartbeats).  The supervisor — and any
    read-only consumer such as ``repro-cli campaign workers`` — calls
    this to fold the per-worker dicts into one campaign-wide view with
    the exact shape ``stats()`` produces, so the existing renderers
    (``render_prometheus``, the dashboard) work unchanged.

    Counters, histograms and layer tallies are summed; breaker circuits
    take the worst reported state per provider; provider health is
    re-weighted by call volume.  Shards partition the catalog, so
    per-module sums (``n_modules``, ``dead_modules``) are disjoint and
    add exactly.
    """
    merged: dict = {"counters": {}}
    histogram = LatencyHistogram()
    for snapshot in snapshots:
        if not snapshot:
            continue
        for name, value in snapshot.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        latency = snapshot.get("latency")
        if latency:
            histogram.absorb(LatencyHistogram.from_snapshot(latency))
        _merge_cache(merged, snapshot.get("cache"))
        _merge_breaker(merged, snapshot.get("breaker"))
        _merge_watchdog(merged, snapshot.get("watchdog"))
        _merge_conformance(merged, snapshot.get("conformance"))
        _merge_health(merged, snapshot.get("health"))
    merged["latency"] = {
        "count": histogram.count,
        "sum_ms": histogram.sum_ms,
        "mean_ms": histogram.mean_ms,
        "p50_ms": histogram.quantile(0.5),
        "p95_ms": histogram.quantile(0.95),
        "max_ms": histogram.max_ms,
        "buckets": histogram.buckets(),
        "cumulative_buckets": [
            list(pair) for pair in histogram.cumulative_buckets()
        ],
    }
    return merged


def _merge_cache(merged: dict, cache: "dict | None") -> None:
    if cache is None:
        return
    into = merged.setdefault(
        "cache",
        {
            "size": 0, "maxsize": 0, "hits": 0, "negative_hits": 0,
            "misses": 0, "evictions": 0, "negative_expired": 0,
        },
    )
    for key in (
        "size", "maxsize", "hits", "negative_hits", "misses",
        "evictions", "negative_expired",
    ):
        into[key] += cache.get(key, 0)
    lookups = into["hits"] + into["negative_hits"] + into["misses"]
    into["hit_rate"] = (
        (into["hits"] + into["negative_hits"]) / lookups if lookups else 0.0
    )


def _merge_breaker(merged: dict, breaker: "dict | None") -> None:
    if breaker is None:
        return
    into = merged.setdefault("breaker", {})
    for provider, circuit in breaker.items():
        entry = into.setdefault(
            provider,
            {
                "state": "closed", "consecutive_failures": 0,
                "times_opened": 0, "fast_failures": 0,
            },
        )
        if _BREAKER_SEVERITY.get(circuit.get("state", "closed"), 0) > (
            _BREAKER_SEVERITY.get(entry["state"], 0)
        ):
            entry["state"] = circuit["state"]
        entry["consecutive_failures"] = max(
            entry["consecutive_failures"],
            circuit.get("consecutive_failures", 0),
        )
        entry["times_opened"] += circuit.get("times_opened", 0)
        entry["fast_failures"] += circuit.get("fast_failures", 0)


def _merge_watchdog(merged: dict, watchdog: "dict | None") -> None:
    if watchdog is None:
        return
    into = merged.setdefault(
        "watchdog", {"budget_s": 0.0, "timeouts": 0, "abandoned_in_flight": 0}
    )
    into["budget_s"] = max(into["budget_s"], watchdog.get("budget_s", 0.0))
    into["timeouts"] += watchdog.get("timeouts", 0)
    into["abandoned_in_flight"] += watchdog.get("abandoned_in_flight", 0)


def _merge_conformance(merged: dict, conformance: "dict | None") -> None:
    if conformance is None:
        return
    into = merged.setdefault("conformance", {})
    for key, value in conformance.items():
        if isinstance(value, (int, float)):
            into[key] = into.get(key, 0) + value


def _merge_health(merged: dict, health: "dict | None") -> None:
    if health is None:
        return
    into = merged.setdefault(
        "health", {"n_modules": 0, "dead_modules": [], "providers": {}}
    )
    into["n_modules"] += health.get("n_modules", 0)
    into["dead_modules"] = sorted(
        set(into["dead_modules"]) | set(health.get("dead_modules", []))
    )
    for provider, entry in health.get("providers", {}).items():
        rollup = into["providers"].setdefault(
            provider,
            {
                "calls": 0, "answered": 0, "timeouts": 0, "malformed": 0,
                "modules": 0, "dead_modules": 0,
            },
        )
        for key in (
            "calls", "answered", "timeouts", "malformed", "modules",
            "dead_modules",
        ):
            rollup[key] += entry.get(key, 0)
        rollup["availability"] = (
            rollup["answered"] / rollup["calls"] if rollup["calls"] else 1.0
        )
