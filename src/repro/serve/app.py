"""The annotation-as-a-service HTTP layer.

:class:`AnnotationServer` extends the stdlib ``ThreadingHTTPServer``
pattern of :class:`repro.obs.metrics.MetricsServer` into a full
concurrent service.  Every connection gets a handler thread; every
*work* request (anything under ``/v1/``) then passes three gates before
it touches the engine:

1. **Rate limiting** — a per-tenant token bucket keyed on the
   ``X-Api-Key`` header.  Over-budget tenants get ``429`` with
   ``{"reason": "rate-limited"}`` and a ``Retry-After`` header; other
   tenants are unaffected.
2. **Admission control** — a bounded inflight + queue gate.  A
   saturated service sheds with ``429`` / ``{"reason": "saturated"}``
   instead of queueing without bound.
3. **Deadline propagation** — an ``X-Deadline-Ms`` header (or the
   configured default) is armed as an ambient
   :func:`repro.engine.deadline_scope`; the engine's watchdog clamps
   every invocation budget to whatever remains, and an exhausted
   deadline surfaces as ``504``.

``/healthz``, ``/metrics`` and ``/metrics.json`` bypass all three gates
— a saturated server must stay observable.  Each request gets a trace
id — a client-supplied ``traceparent`` or ``X-Trace-Id`` (validated and
normalized by :func:`repro.obs.propagation.extract_trace_context`, so a
hostile client cannot bloat journals or labels with unbounded ids), or
a freshly minted fleet-unique one — that is returned in ``X-Trace-Id``,
written to the structured access log, and attached ambiently to every
engine span opened on its behalf
(:func:`repro.obs.propagation.propagation_scope`), together with this
process's ``(process_role, process_id)``.  In a fleet, every completed
span tree is also committed to the shared process journal
(:mod:`repro.processlog`) as this replica's, so
``repro-cli trace ID --fleet`` reconstructs the request across replicas
from the journal alone.

Routes::

    GET  /healthz                    liveness + registration count
    GET  /metrics                    Prometheus exposition (engine + http + slo)
    GET  /metrics.json               the merged stats snapshot as JSON
    POST /v1/modules                 register a catalog module   {"module_id": ...}
    GET  /v1/modules                 registered module ids
    POST /v1/generate                §3 example generation        {"module_id": ...}
    POST /v1/match                   §6 behavior comparison       {"module_id": ...}
    GET  /v1/campaigns/{id}          journaled campaign progress
    GET  /v1/campaigns/{id}/alerts   journaled alert history
"""

from __future__ import annotations

import json
import math
import threading
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler
from urllib.parse import urlsplit

from repro.campaign.journal import (
    CampaignJournal,
    UnknownCampaignError,
    campaign_progress,
)
from repro.engine import deadline_scope, remaining_deadline
from repro.engine.telemetry import default_clock
from repro.modules.errors import ModuleTimeoutError, ModuleUnavailableError
from repro.obs.propagation import (
    TraceIdGenerator,
    extract_trace_context,
    propagation_scope,
)
from repro.obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    ServeError,
    bind_threading_server,
    render_prometheus,
)
from repro.obs.slo import SLOEvaluator
from repro.obs.timeseries import Sampler
from repro.processlog import FLEET_SCOPE, REPLICA
from repro.serve.admission import AdmissionController, SaturatedError
from repro.serve.httpmetrics import HttpMetrics, normalize_endpoint
from repro.serve.ratelimit import ANONYMOUS_TENANT, TenantRateLimiter
from repro.serve.sampling import (
    HTTP_CAMPAIGN_ID,
    HTTP_SLOS,
    http_sample,
    open_http_campaign,
)
from repro.serve.state import ServeStateStore
from repro.serve.service import (
    AnnotationService,
    UnknownModuleError,
    UnregisteredModuleError,
)

#: Requests recorded in the in-memory access-log ring.
ACCESS_LOG_CAPACITY = 1024

#: Base ``Retry-After`` hint of a shed request, seconds (scaled by queue
#: depth and jittered by :class:`~repro.serve.admission.AdmissionController`).
SHED_RETRY_AFTER = 0.25


@dataclass
class ServeConfig:
    """Tuning knobs of one :class:`AnnotationServer`.

    Attributes:
        host / port: Bind address (port 0 picks a free ephemeral port).
        max_inflight / max_queue / queue_timeout:
            Admission control (:class:`~repro.serve.admission.AdmissionController`).
        rate / burst: Per-tenant token-bucket budget; ``rate=None``
            disables rate limiting.
        default_deadline_s: Deadline applied when the client sends no
            ``X-Deadline-Ms`` header (``None`` = no default deadline;
            the watchdog budget still bounds each invocation).
        db: The serving SQLite file (``repro-cli serve --db``).  Enables
            the ``/v1/campaigns/*`` endpoints and, together with
            ``sample_interval``, journals HTTP samples + SLO alerts
            under :data:`HTTP_CAMPAIGN_ID` so ``repro-cli top`` /
            ``alerts`` cover the server: through the journal of the
            service's :class:`~repro.serve.state.ServeStateStore` when
            it carries one (a fleet replica opens its store on ``db``),
            else through a campaign journal the server opens on ``db``
            itself.  Registrations stay in memory without a store.
        sample_interval: Seconds between background SLO samples
            (0 disables the background thread; sampling can still be
            driven manually via ``server.sampler.sample()``).
        log_stream: Stream for structured JSON access-log lines
            (``None`` keeps the log in-memory only).
        reuse_port: Bind with ``SO_REUSEPORT`` so several replica
            processes share this (concrete) port and the kernel balances
            connections across them.
        replica: This process's replica index in a fleet (``None`` for a
            standalone server); the sampler's slot.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 8
    max_queue: int = 32
    queue_timeout: float = 1.0
    rate: "float | None" = 50.0
    burst: float = 100.0
    default_deadline_s: "float | None" = None
    db: "str | None" = None
    sample_interval: float = 0.0
    log_stream: "object | None" = None
    reuse_port: bool = False
    replica: "int | None" = None


class _ClientError(Exception):
    """A request the client got wrong, carrying its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class AnnotationServer:
    """Concurrent HTTP service over an :class:`AnnotationService`.

    Args:
        service: The annotation service to expose (built from
            ``config``-independent defaults when omitted).
        config: The serving knobs.
        clock: Monotonic clock, injectable for tests.

    Usage::

        with AnnotationServer(service) as server:
            print(f"listening on http://{server.host}:{server.port}")
            ...

    Raises:
        ServeError: The configured port is already bound.
    """

    def __init__(
        self,
        service: "AnnotationService | None" = None,
        config: "ServeConfig | None" = None,
        clock=default_clock,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.service = service if service is not None else AnnotationService()
        # Durable serving state is the service's store (the fleet
        # replica path); a standalone server keeps registrations,
        # reports and tenant budgets in memory.
        self.state: "ServeStateStore | None" = self.service.state
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            max_queue=self.config.max_queue,
            queue_timeout=self.config.queue_timeout,
            retry_after=SHED_RETRY_AFTER,
            seed=self.service.seed,
            clock=clock,
        )
        self.limiter = TenantRateLimiter(
            rate=self.config.rate, burst=self.config.burst, clock=clock,
            store=self.state,
        )
        self.metrics = HttpMetrics()
        self._clock = clock
        self._trace_ids = TraceIdGenerator()
        self.access_log: "deque[dict]" = deque(maxlen=ACCESS_LOG_CAPACITY)
        # One handle on the file: a server with a store journals through
        # the store's journal, whose row the service opened; one without
        # opens its own (closed by stop).
        self.journal: "CampaignJournal | None" = None
        if self.state is not None:
            self.journal = self.state.journal
        elif self.config.db is not None:
            self.journal = CampaignJournal(self.config.db)
            open_http_campaign(self.journal, self.service.seed)
        self.sampler = Sampler(
            lambda: http_sample(self.http_snapshot()),
            journal=self.journal,
            campaign_id=HTTP_CAMPAIGN_ID,
            slot=self.config.replica,
            evaluator=SLOEvaluator(HTTP_SLOS),
            clock=clock,
        )
        # The fleet flight recorder: with durable state attached, every
        # completed engine span tree is committed to the shared process
        # journal — the campaign flight recorder's table, keyed by
        # replica — so fleet trace assembly reads journals alone.
        # Standalone servers (no state store) keep the in-memory ring
        # only, exactly as before.
        tracer = getattr(self.service.engine, "tracer", None)
        if self.state is not None and tracer is not None and tracer.sink is None:
            state = self.state
            replica = self.config.replica if self.config.replica is not None else 0

            def _record_replica_span(span, _state=state, _replica=replica):
                _state.processes.record_span(
                    REPLICA, FLEET_SCOPE, _replica, span.to_dict()
                )

            tracer.sink = _record_replica_span
        # Graceful-drain machinery: a draining server answers in-flight
        # requests, closes keep-alive connections, and accepts nothing
        # new.  ``_active`` counts requests between header parse and
        # response write; drain() waits for it to reach zero.
        self._draining = threading.Event()
        self._active = 0
        self._active_cond = threading.Condition()
        server = self

        class Handler(BaseHTTPRequestHandler):
            # Keep-alive matters here: the load harness reuses one
            # connection per simulated client, and HTTP/1.1 + explicit
            # Content-Length on every response is what makes that safe.
            protocol_version = "HTTP/1.1"

            def do_GET(self) -> None:  # noqa: N802 - stdlib naming
                server._handle(self, "GET")

            def do_POST(self) -> None:  # noqa: N802 - stdlib naming
                server._handle(self, "POST")

            def log_message(self, *args) -> None:
                pass  # the structured access log replaces stdlib logging

        self._httpd = bind_threading_server(
            Handler, self.config.host, self.config.port, "annotation server",
            reuse_port=self.config.reuse_port,
        )
        self._httpd.daemon_threads = True
        self._thread: "threading.Thread | None" = None

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self) -> "AnnotationServer":
        """Serve on a daemon thread; start background sampling if
        configured (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-annotation-server",
                daemon=True,
            )
            self._thread.start()
            if self.config.sample_interval > 0:
                self.sampler.start(self.config.sample_interval)
        return self

    def stop(self) -> None:
        """Stop serving and sampling, and close the journal this server
        opened (a store's journal stays with its owner)."""
        self.sampler.stop()
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.server_close()
        if self.journal is not None and self.state is None:
            self.journal.close()
            self.journal = None

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def drain(self, timeout: float = 5.0) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight work.

        The sequence a SIGTERM'd replica must walk:

        1. flip the draining flag — every response written from now on
           carries ``Connection: close``, so keep-alive clients are told
           to reconnect (the kernel routes their next connection to a
           sibling replica);
        2. stop the accept loop and **close the listening socket** —
           with ``SO_REUSEPORT`` the port stays served by the rest of
           the fleet the instant this socket closes;
        3. wait up to ``timeout`` seconds for the in-flight request
           counter to reach zero, then release the rest of the server
           (sampler, and the journal it opened).

        Idle keep-alive connections (no request currently in flight) are
        *not* waited for: their handler threads are daemon threads that
        die with the process, and a client reusing such a socket sees a
        reset on a connection that never carried an unanswered request —
        the retry-once-on-fresh-connection rule every keep-alive client
        needs anyway.

        Returns:
            True when every in-flight request finished inside the
            deadline; False when the drain timed out with requests still
            running.
        """
        self._draining.set()
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.server_close()
        deadline = self._clock() + timeout
        drained = True
        with self._active_cond:
            while self._active > 0:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    drained = False
                    break
                self._active_cond.wait(remaining)
        self.stop()
        return drained

    def __enter__(self) -> "AnnotationServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def http_snapshot(self) -> dict:
        """Merged HTTP accounting: request metrics + admission +
        per-tenant rate-limit buckets.  This is the ``http`` section of
        the stats snapshot and the sampler's raw material."""
        snapshot = self.metrics.snapshot()
        snapshot.update(self.admission.snapshot())
        snapshot["tenants"] = self.limiter.snapshot()
        return snapshot

    def stats(self) -> dict:
        """Engine stats merged with the ``http`` and ``slo`` sections."""
        stats = self.service.stats()
        stats["http"] = self.http_snapshot()
        stats["slo"] = self.sampler.evaluator.snapshot()
        return stats

    def to_prometheus(self) -> str:
        return render_prometheus(self.stats())

    def to_json(self) -> str:
        return json.dumps(self.stats(), indent=2, sort_keys=True)

    # ------------------------------------------------------------------
    def _handle(self, handler: BaseHTTPRequestHandler, method: str) -> None:
        with self._active_cond:
            self._active += 1
        try:
            self._handle_counted(handler, method)
        finally:
            with self._active_cond:
                self._active -= 1
                if self._active == 0:
                    self._active_cond.notify_all()

    def _handle_counted(
        self, handler: BaseHTTPRequestHandler, method: str
    ) -> None:
        started = self._clock()
        path = urlsplit(handler.path).path
        tenant = handler.headers.get("X-Api-Key") or ANONYMOUS_TENANT
        # Client-supplied trace context (traceparent / X-Trace-Id) is
        # validated and normalized — hex only, bounded length — before
        # it can reach a journal or a log line; anything unusable falls
        # back to a fleet-unique generated id.
        context, propagated = extract_trace_context(
            handler.headers, self._trace_ids
        )
        trace_id = context.trace_id
        headers: "dict[str, str]" = {}
        try:
            body = self._read_body(handler)
            if path == "/healthz":
                status, payload = 200, {
                    "status": "ok",
                    "registered_modules": len(self.service.modules()),
                }
            elif path in ("/metrics", "/"):
                status, payload = 200, self.to_prometheus()
            elif path == "/metrics.json":
                status, payload = 200, self.stats()
            elif path.startswith("/v1/"):
                status, payload = self._governed(
                    method, path, body, handler.headers, tenant, context,
                    headers,
                )
            else:
                raise _ClientError(404, f"no route {path!r}")
        except _ClientError as error:
            status, payload = error.status, {"error": str(error)}
        except SaturatedError as error:
            self.metrics.record_shed()
            headers["Retry-After"] = str(math.ceil(error.retry_after_s))
            status, payload = 429, {
                "error": str(error),
                "reason": "saturated",
                "retry_after_s": round(error.retry_after_s, 3),
            }
        except ModuleTimeoutError as error:
            self.metrics.record_deadline_exceeded()
            status, payload = 504, {"error": str(error), "reason": "deadline"}
        except ModuleUnavailableError as error:
            status, payload = 503, {"error": str(error), "reason": "unavailable"}
        except Exception as error:  # noqa: BLE001 - the 500 boundary
            status, payload = 500, {
                "error": f"{type(error).__name__}: {error}"
            }
        elapsed_ms = (self._clock() - started) * 1000.0
        endpoint = normalize_endpoint(path)
        self.metrics.observe(endpoint, method, status, elapsed_ms)
        self._log_access(
            trace_id, tenant, method, path, status, elapsed_ms,
            propagated=propagated,
        )
        self._respond(handler, status, payload, trace_id, headers)

    # ------------------------------------------------------------------
    def _governed(
        self,
        method: str,
        path: str,
        body: "dict | None",
        request_headers,
        tenant: str,
        context,
        headers: "dict[str, str]",
    ) -> "tuple[int, dict]":
        """The gated work path: rate limit, admission, deadline, dispatch."""
        trace_id = context.trace_id
        allowed, retry_after = self.limiter.check(tenant)
        if not allowed:
            self.metrics.record_rate_limited(tenant)
            headers["Retry-After"] = str(math.ceil(retry_after))
            return 429, {
                "error": f"tenant {tenant!r} over its request budget",
                "reason": "rate-limited",
                "retry_after_s": round(retry_after, 3),
            }
        deadline_s = self._deadline_seconds(request_headers)
        self.admission.acquire(max_wait=deadline_s)
        # The serving-chaos clock ticks here — request admitted, no
        # response written — so an armed --chaos-kill-replica dies at
        # the worst moment: mid-request, the client left with a dropped
        # connection, exactly like a real replica crash.
        self.service.note_request()
        try:
            with deadline_scope(deadline_s), propagation_scope(
                context,
                "replica",
                process_id=(
                    self.config.replica
                    if self.config.replica is not None
                    else 0
                ),
                http_trace_id=trace_id,
                http_tenant=tenant,
            ):
                result = self._dispatch(method, path, body)
                # The engine degrades gracefully on a spent deadline
                # (clipped invocations become quarantined combinations,
                # not exceptions), so the transport must check for
                # itself: a client whose deadline has passed has given
                # up — a late 200 with clipped results would be
                # indistinguishable from a good answer.
                remaining = remaining_deadline()
                if remaining is not None and remaining <= 0:
                    raise ModuleTimeoutError(
                        "request deadline exceeded while handling "
                        f"{method} {path}",
                        budget=deadline_s or 0.0,
                    )
                return result
        finally:
            self.admission.release()

    def _deadline_seconds(self, request_headers) -> "float | None":
        deadline_ms = request_headers.get("X-Deadline-Ms")
        if deadline_ms is None:
            return self.config.default_deadline_s
        try:
            value = float(deadline_ms)
        except ValueError:
            raise _ClientError(
                400, f"X-Deadline-Ms must be a number, got {deadline_ms!r}"
            ) from None
        if value <= 0:
            raise _ClientError(400, "X-Deadline-Ms must be positive")
        return value / 1000.0

    def _dispatch(
        self, method: str, path: str, body: "dict | None"
    ) -> "tuple[int, dict]":
        if path == "/v1/modules":
            if method == "POST":
                result = self._translate(
                    lambda: self.service.register(self._module_id(body))
                )
                return (201 if result["registered"] else 200), result
            if method == "GET":
                return 200, {"modules": self.service.modules()}
            raise _ClientError(405, f"{method} not allowed on {path}")
        if path == "/v1/generate":
            if method != "POST":
                raise _ClientError(405, f"{method} not allowed on {path}")
            return 200, self._translate(
                lambda: self.service.generate(self._module_id(body))
            )
        if path == "/v1/match":
            if method != "POST":
                raise _ClientError(405, f"{method} not allowed on {path}")
            return 200, self._translate(
                lambda: self.service.match(self._module_id(body))
            )
        if path.startswith("/v1/campaigns/"):
            if method != "GET":
                raise _ClientError(405, f"{method} not allowed on {path}")
            return self._campaign(path)
        raise _ClientError(404, f"no route {path!r}")

    def _translate(self, call):
        try:
            return call()
        except UnknownModuleError as error:
            raise _ClientError(404, str(error.args[0])) from None
        except UnregisteredModuleError as error:
            raise _ClientError(409, str(error.args[0])) from None

    @staticmethod
    def _module_id(body: "dict | None") -> str:
        if not isinstance(body, dict) or not isinstance(
            body.get("module_id"), str
        ):
            raise _ClientError(
                400, 'request body must be {"module_id": "<id>"}'
            )
        return body["module_id"]

    def _campaign(self, path: str) -> "tuple[int, dict]":
        if self.journal is None:
            raise _ClientError(
                404, "no campaign journal configured (start with --db)"
            )
        parts = path.rstrip("/").split("/")
        campaign_id = parts[3]
        tail = parts[4:]
        try:
            meta = self.journal.meta(campaign_id)
        except UnknownCampaignError:
            raise _ClientError(
                404, f"no campaign {campaign_id!r} in the journal"
            ) from None
        if not tail:
            return 200, campaign_progress(self.journal, meta)
        if tail == ["alerts"]:
            return 200, {
                "campaign_id": campaign_id,
                "alerts": self.journal.alerts(campaign_id),
            }
        raise _ClientError(404, f"no route {path!r}")

    # ------------------------------------------------------------------
    def _read_body(self, handler: BaseHTTPRequestHandler) -> "dict | None":
        length = int(handler.headers.get("Content-Length") or 0)
        if length == 0:
            return None
        raw = handler.rfile.read(length)
        try:
            return json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _ClientError(400, f"request body is not JSON: {error}") from None

    def _respond(
        self,
        handler: BaseHTTPRequestHandler,
        status: int,
        payload,
        trace_id: str,
        headers: "dict[str, str]",
    ) -> None:
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = PROMETHEUS_CONTENT_TYPE
        else:
            if isinstance(payload, dict) and "trace_id" not in payload:
                payload = {**payload, "trace_id": trace_id}
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            content_type = "application/json; charset=utf-8"
        try:
            handler.send_response(status)
            handler.send_header("Content-Type", content_type)
            handler.send_header("Content-Length", str(len(body)))
            handler.send_header("X-Trace-Id", trace_id)
            for name, value in headers.items():
                handler.send_header(name, value)
            if self._draining.is_set():
                # Tell keep-alive clients this connection is done; the
                # stdlib handler sees the header and closes after the
                # body, so the client's next request reconnects (and,
                # under SO_REUSEPORT, lands on a sibling replica).
                handler.send_header("Connection", "close")
            handler.end_headers()
            handler.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client hung up; nothing to answer anymore

    def _log_access(
        self,
        trace_id: str,
        tenant: str,
        method: str,
        path: str,
        status: int,
        elapsed_ms: float,
        propagated: bool = False,
    ) -> None:
        entry = {
            "trace_id": trace_id,
            "tenant": tenant,
            "method": method,
            "path": path,
            "status": status,
            "elapsed_ms": round(elapsed_ms, 3),
            "propagated": propagated,
        }
        self.access_log.append(entry)
        stream = self.config.log_stream
        if stream is not None:
            try:
                stream.write(json.dumps(entry, sort_keys=True) + "\n")
                stream.flush()
            except ValueError:
                pass  # stream already closed (shutdown race)


__all__ = ["AnnotationServer", "ServeConfig", "ServeError"]
