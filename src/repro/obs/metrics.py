"""Metrics export: the engine's telemetry in scrape-friendly formats.

The engine already *keeps* every number an operator needs (counters,
latency histogram, breaker circuits, watchdog and conformance stats,
module health); this module makes them *leave the process* — as
`Prometheus text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ for
scraping during a long campaign, or as JSON for everything else.  The
rendering is a pure function of :meth:`InvocationEngine.stats`'s
snapshot dict, so it works equally on a live engine and on a snapshot
deserialized from elsewhere.

Metric naming follows the Prometheus conventions:

``repro_invocations_total{outcome=...}``
    Final invocation outcomes (``ok`` / ``invalid`` / ``unavailable`` /
    ``timeout`` / ``malformed`` / ``transport_error``).
``repro_invocation_latency_ms`` (histogram)
    Fixed buckets from :class:`~repro.engine.telemetry.LatencyHistogram`
    (0.05 ms .. 1 s, plus ``+Inf``), with ``_sum`` and ``_count``.
``repro_engine_events_total{event=...}``
    Every other engine counter (retries, cache hits, fault injections,
    breaker transitions, ...), keyed by counter name.
``repro_cache_*``, ``repro_watchdog_*``, ``repro_conformance_*``
    Layer accounting, present when the layer is configured.
``repro_breaker_state{provider=...}``
    0 = closed, 1 = open, 2 = half-open; plus per-provider open/fast-fail
    totals.
``repro_provider_availability{provider=...}``, ``repro_dead_modules``
    The health registry's provider rollup and observed-dead gauge.
``repro_tracing_*``
    How much history the bounded trace buffer has already shed — an
    exporter must say when its own window is lossy.
``repro_slo_burn_rate{slo=...,subject=...,window=...}``, ``repro_slo_alert_firing{...}``
    Burn-rate gauges and the alert lifecycle from
    :class:`repro.obs.slo.SLOEvaluator`, present when the stats snapshot
    carries an ``slo`` section (merged in by the campaign sampler).
``repro_campaign_worker_*{worker=...,shard=...}``
    The sharded-campaign worker fleet (liveness, invocations, restarts,
    heartbeat age, per-shard progress), present when the snapshot
    carries a ``workers`` section of
    :func:`repro.campaign.sharding.worker_rows` rows
    (``repro-cli campaign workers --prometheus``).
``repro_match_*``
    Candidate-pruning accounting of repository-scale matching
    (surviving vs. exhaustive pairs, verification invocations, pruning
    ratio), present when the snapshot carries a ``match`` section of
    :meth:`repro.match.matcher.MatchAccounting.as_dict`.
``repro_serve_replica_*{replica=...}``
    The serving-fleet replicas (liveness, requests served, restarts,
    heartbeat age), present when the snapshot carries a ``replicas``
    section of :meth:`repro.serve.state.ServeStateStore.replica_rows`
    rows (``repro-cli serve fleet --prometheus``).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

#: Breaker state encoding of ``repro_breaker_state``.
BREAKER_STATE_CODES = {"closed": 0, "open": 1, "half-open": 2}

#: The content type Prometheus scrapers expect.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ServeError(RuntimeError):
    """An HTTP server could not be brought up (or fell over) in a way
    the operator must act on — most commonly the requested port is
    already bound by another process.  Raised instead of letting a bare
    ``OSError`` traceback escape, with the host/port in the message."""


def bind_threading_server(
    handler, host: str, port: int, what: str, backlog: int = 1024,
    reuse_port: bool = False,
):
    """Bind a :class:`ThreadingHTTPServer`, translating bind failures.

    Args:
        handler: The ``BaseHTTPRequestHandler`` subclass to serve.
        host: Bind address.
        port: TCP port (0 picks a free ephemeral port).
        what: Human label for the server, used in error messages.
        backlog: Listen backlog.  The socketserver default (5) drops
            connections under a concurrent connect wavefront; a server
            meant to shed load *explicitly* (429) must first accept the
            connection.
        reuse_port: Set ``SO_REUSEPORT`` before binding, so several
            replica processes share one port and the kernel balances
            incoming connections across them.  Requires a concrete port
            (the replicas must agree on it) and a platform that has the
            option.

    Raises:
        ServeError: The address is already in use or not bindable —
            the message names the server, host and port so the operator
            can find the squatter or pick another port; or
            ``reuse_port`` was requested on a platform without
            ``SO_REUSEPORT``.
    """
    import errno
    import socket

    if reuse_port and not hasattr(socket, "SO_REUSEPORT"):
        raise ServeError(
            f"{what}: SO_REUSEPORT is not available on this platform — "
            "multi-replica serving needs kernel support for shared ports"
        )

    class _Server(ThreadingHTTPServer):
        request_queue_size = backlog

        def server_bind(self) -> None:
            if reuse_port:
                self.socket.setsockopt(
                    socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
                )
            super().server_bind()

    try:
        return _Server((host, port), handler)
    except OSError as error:
        if error.errno in (errno.EADDRINUSE, errno.EACCES, errno.EADDRNOTAVAIL):
            raise ServeError(
                f"{what}: cannot bind {host}:{port} — "
                f"{error.strerror or error} "
                f"(is another process already listening on port {port}?)"
            ) from error
        raise


def escape_label_value(value: str) -> str:
    r"""Escape a label value per the text exposition format.

    Backslash, double-quote and newline are the three characters the
    format requires escaping:

    >>> escape_label_value('plain')
    'plain'
    >>> escape_label_value('a"b\\c\nd')
    'a\\"b\\\\c\\nd'
    """
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _fmt(value) -> str:
    """Render a sample value: integers bare, floats in full precision."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class _Lines:
    """Accumulates exposition lines, emitting HELP/TYPE once per metric."""

    def __init__(self, namespace: str) -> None:
        self.namespace = namespace
        self._lines: "list[str]" = []
        self._declared: "set[str]" = set()

    def declare(self, name: str, kind: str, help_text: str) -> str:
        metric = f"{self.namespace}_{name}"
        if metric not in self._declared:
            self._declared.add(metric)
            self._lines.append(f"# HELP {metric} {help_text}")
            self._lines.append(f"# TYPE {metric} {kind}")
        return metric

    def sample(
        self, metric: str, value, labels: "dict[str, str] | None" = None
    ) -> None:
        if labels:
            rendered = ",".join(
                f'{key}="{escape_label_value(str(val))}"'
                for key, val in labels.items()
            )
            self._lines.append(f"{metric}{{{rendered}}} {_fmt(value)}")
        else:
            self._lines.append(f"{metric} {_fmt(value)}")

    def text(self) -> str:
        return "\n".join(self._lines) + "\n"


#: Engine counters that are per-outcome invocation tallies rather than
#: free-form events.
_OUTCOME_COUNTERS = (
    "ok",
    "invalid",
    "unavailable",
    "timeout",
    "malformed",
    "transport_error",
)


#: The per-process gauges of the ``workers`` and ``replicas`` sections:
#: ``(label keys, ((metric, type, help, row key), ...))``, exposition
#: order.  A row without a heartbeat age emits no age sample.
_WORKER_GAUGES = (
    ("worker", "shard"),
    (
        ("campaign_worker_up", "gauge",
         "1 while the shard's worker is running with a fresh heartbeat.",
         "alive"),
        ("campaign_worker_invocations_total", "counter",
         "Provider invocations issued by the shard's current worker.",
         "invocations"),
        ("campaign_worker_restarts_total", "counter",
         "Times the supervisor restarted the shard's worker.", "restarts"),
        ("campaign_worker_heartbeat_age_seconds", "gauge",
         "Seconds since the shard's last journaled heartbeat.",
         "heartbeat_age"),
        ("campaign_worker_modules_done", "gauge",
         "Modules the shard has journaled done, against its plan.", "n_done"),
        ("campaign_worker_modules_planned", "gauge",
         "Modules planned for the shard.", "n_planned"),
    ),
)
_REPLICA_GAUGES = (
    ("replica",),
    (
        ("serve_replica_up", "gauge",
         "1 while the replica is running with a fresh heartbeat.", "alive"),
        ("serve_replica_requests_total", "counter",
         "HTTP requests served by the replica's current process.",
         "requests_total"),
        ("serve_replica_restarts_total", "counter",
         "Times the supervisor restarted the replica.", "restarts"),
        ("serve_replica_heartbeat_age_seconds", "gauge",
         "Seconds since the replica's last journaled heartbeat.",
         "heartbeat_age"),
        ("serve_replica_attempt", "gauge",
         "Spawn attempt of the replica's current process (1 = original).",
         "attempt"),
    ),
)


def _render_processes(out: _Lines, rows: "list[dict] | None", gauges) -> None:
    """One section of per-process gauges, one sample per row and gauge."""
    if rows is None:
        return
    label_keys, specs = gauges
    metrics = [
        (out.declare(name, kind, help_text), key)
        for name, kind, help_text, key in specs
    ]
    for row in rows:
        labels = {key: str(row[key]) for key in label_keys}
        for metric, key in metrics:
            value = row.get(key, None if key == "heartbeat_age" else 0)
            if value is not None:
                out.sample(metric, value, labels)


def render_prometheus(stats: dict, namespace: str = "repro") -> str:
    """Render one engine stats snapshot as Prometheus text exposition.

    Args:
        stats: The dict :meth:`InvocationEngine.stats` returns (layer
            sections are optional — absent layers are simply skipped).
        namespace: Metric-name prefix.

    Returns:
        A scrape body terminated by a newline, parseable under the
        text-format rules (HELP/TYPE comments, escaped label values,
        cumulative histogram with a ``+Inf`` bucket).
    """
    out = _Lines(namespace)
    counters = dict(stats.get("counters", {}))

    metric = out.declare(
        "invocations_total", "counter", "Final invocation outcomes."
    )
    for outcome in _OUTCOME_COUNTERS:
        out.sample(metric, counters.pop(outcome, 0), {"outcome": outcome})

    latency = stats.get("latency")
    if latency is not None:
        metric = out.declare(
            "invocation_latency_ms",
            "histogram",
            "Wall-clock invocation latency, milliseconds.",
        )
        for bound, cumulative in latency.get("cumulative_buckets", []):
            out.sample(f"{metric}_bucket", cumulative, {"le": str(bound)})
        out.sample(f"{metric}_sum", latency.get("sum_ms", 0.0))
        out.sample(f"{metric}_count", latency.get("count", 0))

    metric = out.declare(
        "engine_events_total", "counter", "Engine bookkeeping counters, by name."
    )
    for name in sorted(counters):
        out.sample(metric, counters[name], {"event": name})

    cache = stats.get("cache")
    if cache is not None:
        for name, kind, help_text, key in (
            ("cache_entries", "gauge", "Entries currently cached.", "size"),
            ("cache_capacity", "gauge", "Cache LRU capacity.", "maxsize"),
            ("cache_hits_total", "counter", "Positive cache hits.", "hits"),
            ("cache_negative_hits_total", "counter",
             "Replayed negative entries.", "negative_hits"),
            ("cache_misses_total", "counter", "Cache misses.", "misses"),
            ("cache_evictions_total", "counter", "LRU evictions.", "evictions"),
        ):
            out.sample(out.declare(name, kind, help_text), cache.get(key, 0))

    watchdog = stats.get("watchdog")
    if watchdog is not None:
        out.sample(
            out.declare("watchdog_budget_seconds", "gauge",
                        "Wall-clock budget per invocation."),
            watchdog.get("budget_s", 0.0),
        )
        out.sample(
            out.declare("watchdog_timeouts_total", "counter",
                        "Invocations abandoned past their budget."),
            watchdog.get("timeouts", 0),
        )
        out.sample(
            out.declare("watchdog_abandoned_in_flight", "gauge",
                        "Abandoned worker threads still running."),
            watchdog.get("abandoned_in_flight", 0),
        )

    conformance = stats.get("conformance")
    if conformance is not None:
        out.sample(
            out.declare("conformance_checked_total", "counter",
                        "Successful invocations validated."),
            conformance.get("checked", 0),
        )
        metric = out.declare(
            "conformance_violations_total", "counter",
            "Interface violations, by kind.",
        )
        for kind in ("arity", "structure", "semantic"):
            out.sample(
                metric, conformance.get(f"{kind}_violations", 0), {"kind": kind}
            )
        out.sample(
            out.declare("conformance_probes_total", "counter",
                        "Nondeterminism double-invocations."),
            conformance.get("probes", 0),
        )
        out.sample(
            out.declare("conformance_unstable_total", "counter",
                        "Probes whose answers disagreed."),
            conformance.get("unstable", 0),
        )

    breaker = stats.get("breaker")
    if breaker is not None:
        state_metric = out.declare(
            "breaker_state", "gauge",
            "Circuit state per provider (0 closed, 1 open, 2 half-open).",
        )
        opened_metric = out.declare(
            "breaker_opened_total", "counter", "Times each circuit tripped open."
        )
        fast_metric = out.declare(
            "breaker_fast_failures_total", "counter",
            "Calls fast-failed by an open circuit.",
        )
        for provider, circuit in sorted(breaker.items()):
            labels = {"provider": provider}
            out.sample(
                state_metric,
                BREAKER_STATE_CODES.get(circuit.get("state", "closed"), 0),
                labels,
            )
            out.sample(opened_metric, circuit.get("times_opened", 0), labels)
            out.sample(fast_metric, circuit.get("fast_failures", 0), labels)

    health = stats.get("health")
    if health is not None:
        out.sample(
            out.declare("observed_modules", "gauge",
                        "Modules the health registry has seen."),
            health.get("n_modules", 0),
        )
        out.sample(
            out.declare("dead_modules", "gauge",
                        "Modules currently observed-dead."),
            len(health.get("dead_modules", [])),
        )
        availability_metric = out.declare(
            "provider_availability", "gauge",
            "Fraction of calls each provider answered.",
        )
        calls_metric = out.declare(
            "provider_calls_total", "counter", "Final outcomes per provider."
        )
        for provider, entry in sorted(health.get("providers", {}).items()):
            labels = {"provider": provider}
            out.sample(availability_metric, entry.get("availability", 1.0), labels)
            out.sample(calls_metric, entry.get("calls", 0), labels)

    tracing = stats.get("tracing")
    if tracing is not None:
        out.sample(
            out.declare("tracing_traces_kept", "gauge",
                        "Completed traces in the ring buffer."),
            tracing.get("traces_kept", 0),
        )
        out.sample(
            out.declare("tracing_dropped_traces_total", "counter",
                        "Traces shed by the bounded ring buffer."),
            tracing.get("dropped_traces", 0),
        )
        out.sample(
            out.declare("tracing_late_spans_total", "counter",
                        "Spans dropped because their parent was abandoned."),
            tracing.get("late_spans", 0),
        )

    http = stats.get("http")
    if http is not None:
        metric = out.declare(
            "http_requests_total", "counter",
            "HTTP requests served, by endpoint, method and status.",
        )
        for entry in http.get("requests", []):
            out.sample(
                metric,
                entry["count"],
                {
                    "endpoint": entry["endpoint"],
                    "method": entry["method"],
                    "status": str(entry["status"]),
                },
            )
        latency = http.get("latency")
        if latency is not None:
            metric = out.declare(
                "http_request_latency_ms", "histogram",
                "Wall-clock HTTP request latency, milliseconds.",
            )
            for bound, cumulative in latency.get("cumulative_buckets", []):
                out.sample(f"{metric}_bucket", cumulative, {"le": str(bound)})
            out.sample(f"{metric}_sum", latency.get("sum_ms", 0.0))
            out.sample(f"{metric}_count", latency.get("count", 0))
        for name, kind, help_text, key in (
            ("http_inflight", "gauge",
             "Requests currently executing past admission.", "inflight"),
            ("http_inflight_limit", "gauge",
             "Admission-control concurrency limit.", "max_inflight"),
            ("http_queue_depth", "gauge",
             "Requests waiting in the admission queue.", "queue_depth"),
            ("http_queue_limit", "gauge",
             "Admission queue capacity.", "max_queue"),
            ("http_admitted_total", "counter",
             "Requests admitted past the admission controller.",
             "admitted_total"),
            ("http_shed_total", "counter",
             "Requests shed with 429 by admission control.", "shed_total"),
            ("http_deadline_exceeded_total", "counter",
             "Requests that exhausted their deadline (504).",
             "deadline_exceeded_total"),
        ):
            out.sample(out.declare(name, kind, help_text), http.get(key, 0))
        metric = out.declare(
            "http_rate_limited_total", "counter",
            "Requests rejected by per-tenant rate limits, by tenant.",
        )
        for tenant, entry in sorted(http.get("tenants", {}).items()):
            out.sample(metric, entry.get("limited", 0), {"tenant": tenant})

    slo = stats.get("slo")
    if slo is not None:
        burn_metric = out.declare(
            "slo_burn_rate", "gauge",
            "Error-budget burn rate per SLO subject and window.",
        )
        for entry in slo.get("burn_rates", []):
            labels = {"slo": entry["slo"], "subject": entry["subject"]}
            out.sample(burn_metric, entry.get("fast", 0.0),
                       {**labels, "window": "fast"})
            out.sample(burn_metric, entry.get("slow", 0.0),
                       {**labels, "window": "slow"})
        alert_metric = out.declare(
            "slo_alert_firing", "gauge",
            "1 while the (slo, subject) alert is firing, 0 once resolved.",
        )
        for event in slo.get("alerts", []):
            out.sample(
                alert_metric,
                1 if event.get("state") == "firing" else 0,
                {"slo": event["slo"], "subject": event["subject"]},
            )
        out.sample(
            out.declare("slo_alerts_firing", "gauge",
                        "Alerts currently firing."),
            slo.get("n_firing", 0),
        )

    _render_processes(out, stats.get("workers"), _WORKER_GAUGES)

    match = stats.get("match")
    if match is not None:
        out.sample(
            out.declare("match_candidate_pairs", "gauge",
                        "Pairs surviving the signature index."),
            match.get("candidate_pairs", 0),
        )
        out.sample(
            out.declare("match_exhaustive_pairs", "gauge",
                        "Pairs the exhaustive matcher would attempt."),
            match.get("exhaustive_pairs", 0),
        )
        out.sample(
            out.declare("match_invocations_total", "counter",
                        "Engine invocations spent verifying candidates."),
            match.get("invocations", 0),
        )
        out.sample(
            out.declare("match_pruning_ratio", "gauge",
                        "Fraction of the pair space the index discarded."),
            match.get("pruning_ratio", 0.0),
        )

    _render_processes(out, stats.get("replicas"), _REPLICA_GAUGES)
    return out.text()


class MetricsExporter:
    """Snapshots one engine's telemetry in exportable formats.

    The exporter holds no state of its own: every call re-snapshots the
    engine, so scraping a long campaign always sees current numbers.

    Args:
        engine: The :class:`~repro.engine.invoker.InvocationEngine` (or
            anything with a ``stats() -> dict`` method).
        namespace: Prometheus metric-name prefix.
    """

    def __init__(self, engine, namespace: str = "repro") -> None:
        self.engine = engine
        self.namespace = namespace

    def snapshot(self) -> dict:
        """The engine's merged stats snapshot (JSON-compatible)."""
        return self.engine.stats()

    def to_json(self, indent: "int | None" = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """The snapshot in Prometheus text exposition format."""
        return render_prometheus(self.snapshot(), namespace=self.namespace)


class MetricsServer:
    """A stdlib scrape endpoint for long-running campaigns.

    Serves ``GET /metrics`` (Prometheus text format) and
    ``GET /metrics.json`` (the full stats snapshot) from a daemon
    thread; anything else is a 404.  Binding port 0 picks a free
    ephemeral port — read :attr:`port` after construction.

    Usage::

        with MetricsServer(MetricsExporter(engine)) as server:
            print(f"scrape http://{server.host}:{server.port}/metrics")
            ...  # run the campaign

    Args:
        exporter: A :class:`MetricsExporter` (or anything with
            ``to_prometheus()`` / ``to_json()``).
        host: Bind address (loopback by default — exposing an engine's
            internals beyond the machine is an explicit decision).
        port: TCP port; 0 for ephemeral.
    """

    def __init__(
        self, exporter, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.exporter = exporter
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - stdlib naming
                if self.path in ("/metrics", "/"):
                    body = server.exporter.to_prometheus().encode("utf-8")
                    content_type = PROMETHEUS_CONTENT_TYPE
                elif self.path == "/metrics.json":
                    body = server.exporter.to_json().encode("utf-8")
                    content_type = "application/json; charset=utf-8"
                else:
                    self.send_error(404, "try /metrics or /metrics.json")
                    return
                self.send_response(200)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # quiet by default
                pass

        self._httpd = bind_threading_server(Handler, host, port, "metrics server")
        self._thread: "threading.Thread | None" = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self) -> "MetricsServer":
        """Begin serving on a daemon thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-metrics-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the socket."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
