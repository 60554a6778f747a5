"""Annotation-as-a-service: a concurrent HTTP layer over the engine.

The serving stack, bottom-up::

    AnnotationService     register / generate / match over the resilient engine
    AdmissionController   bounded inflight + queue; sheds with 429 "saturated"
    TenantRateLimiter     per-X-Api-Key token buckets; 429 "rate-limited"
    HttpMetrics           repro_http_* series (requests, latency, shed, ...)
    http_sample           the server's sample body; HTTP_SLOS its objectives
    AnnotationServer      the ThreadingHTTPServer tying the gates together;
                          one obs.timeseries.Sampler per server journals
                          HTTP samples and alerts under its replica slot
    ServeStateStore       durable fleet-shared state (reports, tenants, replicas)
    ServeSupervisor       N SO_REUSEPORT replicas: restart, drain, roll
    loadgen               barrier-released concurrent load harness + report

Request deadlines (``X-Deadline-Ms``) propagate ambiently into the
engine's watchdog budget; HTTP trace ids join engine span trees via
ambient span attributes.  ``repro-cli serve`` runs the server (or, with
``--replicas N``, the supervised fleet), ``repro-cli loadgen`` drives
it.
"""

from repro.obs.metrics import ServeError, bind_threading_server
from repro.serve.admission import AdmissionController, SaturatedError
from repro.serve.app import AnnotationServer, ServeConfig
from repro.serve.fleet import FleetConfig, ServeSupervisor, serve_replica_main
from repro.serve.httpmetrics import HttpMetrics, normalize_endpoint
from repro.serve.loadgen import (
    ENDPOINTS,
    LoadProfile,
    LoadReport,
    register_modules,
    run_loadgen,
)
from repro.serve.ratelimit import (
    ANONYMOUS_TENANT,
    TenantRateLimiter,
    TokenBucket,
)
from repro.serve.sampling import HTTP_SLOS, http_sample
from repro.serve.state import ServeStateStore
from repro.serve.service import (
    AnnotationService,
    UnknownModuleError,
    UnregisteredModuleError,
)

__all__ = [
    "ANONYMOUS_TENANT",
    "ENDPOINTS",
    "HTTP_SLOS",
    "AdmissionController",
    "AnnotationServer",
    "AnnotationService",
    "FleetConfig",
    "HttpMetrics",
    "LoadProfile",
    "LoadReport",
    "SaturatedError",
    "ServeConfig",
    "ServeError",
    "ServeStateStore",
    "ServeSupervisor",
    "TenantRateLimiter",
    "TokenBucket",
    "UnknownModuleError",
    "UnregisteredModuleError",
    "bind_threading_server",
    "http_sample",
    "normalize_endpoint",
    "register_modules",
    "run_loadgen",
    "serve_replica_main",
]
