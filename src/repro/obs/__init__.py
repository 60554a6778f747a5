"""Observability: tracing, metrics, flight recorder, and the
longitudinal layer (time-series, SLOs, drift, dashboard).

Point-in-time views onto the invocation engine, layered on the
telemetry the engine already keeps:

* :mod:`repro.obs.tracing` — one span tree per invocation, with
  per-layer wall-clock cost and outcome;
* :mod:`repro.obs.metrics` — the engine's stats snapshot in Prometheus
  text exposition format or JSON, plus a stdlib scrape endpoint;
* :mod:`repro.obs.recorder` — spans persisted into the SQLite campaign
  journal, reconstructable after a crash.

Longitudinal views, answering "is it getting worse?" while a campaign
is still running:

* :mod:`repro.obs.timeseries` — a periodic sampler snapshotting engine
  + campaign state into a bounded ring and the ``campaign_snapshots``
  journal table, with rate/delta derivation;
* :mod:`repro.obs.slo` — declarative SLOs evaluated with multi-window
  burn rates, emitting a journaled firing→resolved alert lifecycle;
* :mod:`repro.obs.drift` — per-module behavioral drift via the §6
  matcher over regenerated data examples;
* :mod:`repro.obs.dashboard` — a stdlib-only live terminal dashboard
  over the journal (``repro-cli top``).

Fleet views, stitching one logical picture from many processes:

* :mod:`repro.obs.propagation` — W3C-traceparent-style trace contexts
  carried over HTTP and through the spawn boundary, so every process's
  spans share a trace id;
* :mod:`repro.obs.aggregate` — fleet trace assembly and the unified
  metrics fold over per-replica and per-worker journal rows;
* :mod:`repro.obs.profiler` — a stdlib sampling profiler with
  collapsed-stack and flamegraph text export.
"""

from repro.obs.aggregate import (
    MetricsAggregator,
    collect_fleet_spans,
    merge_http_snapshots,
    render_fleet_trace,
    span_trace_id,
    spans_for_trace,
    trace_ids,
)
from repro.obs.dashboard import Dashboard, ansi_disabled, render_dashboard
from repro.obs.profiler import (
    PROFILE_EVENT_KIND,
    SamplingProfiler,
    maybe_start_profiler,
    merge_profiles,
    render_collapsed,
    render_flamegraph,
    render_top,
    top_frames,
)
from repro.obs.propagation import (
    TRACE_ID_MAX_LEN,
    TraceContext,
    TraceIdGenerator,
    campaign_trace_id,
    extract_trace_context,
    normalize_trace_id,
    parse_traceparent,
    propagation_scope,
)
from repro.obs.drift import (
    DriftDetector,
    DriftReport,
    campaign_drift,
    classify_example_sets,
    render_drift,
)
from repro.obs.metrics import (
    MetricsExporter,
    MetricsServer,
    ServeError,
    bind_threading_server,
    escape_label_value,
    render_prometheus,
)
from repro.obs.recorder import FlightRecorder, load_spans, render_trace
from repro.obs.slo import (
    DEFAULT_SLOS,
    SLO,
    Alert,
    SLOEvaluator,
    alert_states,
    firing_alerts,
    render_alerts,
)
from repro.obs.timeseries import (
    Sampler,
    TimeSeriesRing,
    rebuild_ring,
    render_timeline,
    sample_rates,
)
from repro.obs.tracing import (
    LAYERS,
    Span,
    Tracer,
    TracingInvoker,
    ambient_span_attributes,
)

__all__ = [
    "LAYERS",
    "Span",
    "Tracer",
    "TracingInvoker",
    "MetricsExporter",
    "MetricsServer",
    "ServeError",
    "bind_threading_server",
    "ambient_span_attributes",
    "escape_label_value",
    "render_prometheus",
    "FlightRecorder",
    "load_spans",
    "render_trace",
    "Sampler",
    "TimeSeriesRing",
    "rebuild_ring",
    "render_timeline",
    "sample_rates",
    "SLO",
    "DEFAULT_SLOS",
    "Alert",
    "SLOEvaluator",
    "alert_states",
    "firing_alerts",
    "render_alerts",
    "DriftDetector",
    "DriftReport",
    "campaign_drift",
    "classify_example_sets",
    "render_drift",
    "Dashboard",
    "ansi_disabled",
    "render_dashboard",
    "TRACE_ID_MAX_LEN",
    "TraceContext",
    "TraceIdGenerator",
    "campaign_trace_id",
    "extract_trace_context",
    "normalize_trace_id",
    "parse_traceparent",
    "propagation_scope",
    "MetricsAggregator",
    "collect_fleet_spans",
    "merge_http_snapshots",
    "render_fleet_trace",
    "span_trace_id",
    "spans_for_trace",
    "trace_ids",
    "PROFILE_EVENT_KIND",
    "SamplingProfiler",
    "maybe_start_profiler",
    "merge_profiles",
    "render_collapsed",
    "render_flamegraph",
    "render_top",
    "top_frames",
]
