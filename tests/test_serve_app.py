"""Tests of the annotation HTTP server: endpoint coverage and error
mapping, rate-limit / admission 429s with Retry-After, deadline 504s,
the Prometheus exposition's repro_http_* series, trace-id join into
engine spans, campaign endpoints over a real journal, and the
ServeError port-in-use regression for both server classes."""

from __future__ import annotations

import http.client
import json

import pytest
from tests.test_enactment_differential import CountingInvoker
from tests.test_obs_metrics import parse_exposition

from repro.core.generation import ExampleGenerator
from repro.core.matching import find_matches
from repro.obs.metrics import MetricsExporter, MetricsServer, ServeError
from repro.serve import AnnotationServer, AnnotationService, ServeConfig

MODULE_A = "xf.uniprot_to_fasta"
MODULE_B = "xf.uniprot_to_xml"


@pytest.fixture(scope="module")
def service():
    return AnnotationService(memoize=True)


@pytest.fixture
def server(service):
    with AnnotationServer(service, ServeConfig(rate=None)) as running:
        yield running


def request(
    server,
    method: str,
    path: str,
    body=None,
    headers=None,
):
    """One request; returns (status, response headers, decoded body)."""
    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=30.0
    )
    try:
        raw = None if body is None else json.dumps(body)
        connection.request(method, path, body=raw, headers=dict(headers or {}))
        response = connection.getresponse()
        payload = response.read()
        try:
            decoded = json.loads(payload)
        except (json.JSONDecodeError, UnicodeDecodeError):
            decoded = payload.decode(errors="replace")
        return response.status, dict(response.getheaders()), decoded
    finally:
        connection.close()


# ----------------------------------------------------------------------
# Happy paths
# ----------------------------------------------------------------------
class TestEndpoints:
    def test_healthz(self, server):
        status, headers, body = request(server, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert isinstance(body["registered_modules"], int)
        assert headers["X-Trace-Id"] == body["trace_id"]

    def test_register_is_idempotent(self, server):
        status, _, body = request(
            server, "POST", "/v1/modules", {"module_id": MODULE_A}
        )
        assert status in (200, 201)  # 201 unless another test got there first
        assert body["module_id"] == MODULE_A
        status, _, body = request(
            server, "POST", "/v1/modules", {"module_id": MODULE_A}
        )
        assert status == 200
        assert body["registered"] is False
        status, _, body = request(server, "GET", "/v1/modules")
        assert status == 200
        assert MODULE_A in body["modules"]

    def test_generate_then_cached(self, server):
        request(server, "POST", "/v1/modules", {"module_id": MODULE_A})
        status, _, body = request(
            server, "POST", "/v1/generate", {"module_id": MODULE_A}
        )
        assert status == 200
        assert body["module_id"] == MODULE_A
        assert body["n_examples"] > 0
        assert body["report"]["module_id"] == MODULE_A
        status, _, again = request(
            server, "POST", "/v1/generate", {"module_id": MODULE_A}
        )
        assert status == 200
        assert again["cached"] is True
        assert again["n_examples"] == body["n_examples"]

    def test_match_includes_an_equivalent_candidate(self, server):
        request(server, "POST", "/v1/modules", {"module_id": MODULE_A})
        status, _, body = request(
            server, "POST", "/v1/match", {"module_id": MODULE_A}
        )
        assert status == 200
        assert body["module_id"] == MODULE_A
        by_candidate = {m["candidate_id"]: m for m in body["matches"]}
        # A module always matches its own behavior.
        assert by_candidate[MODULE_A]["kind"] == "equivalent"


class TestServedMatchThroughTheEngine:
    """``match`` invokes its candidates through the service's engine:
    the payload is the one a bare supply-interface comparison gives, and
    every candidate call shows in the engine's stats."""

    @staticmethod
    def expected_payload(service, module_id):
        module = service._lookup(module_id)
        examples = (
            ExampleGenerator(service.ctx, service.pool).generate(module).examples
        )
        counted = CountingInvoker()
        reports = find_matches(
            service.ctx, module, examples, service.catalog, invoker=counted
        )
        payload = {
            "module_id": module_id,
            "n_examples": len(examples),
            "matches": [
                {
                    "candidate_id": report.candidate_id,
                    "kind": report.kind.value,
                    "n_examples": report.n_examples,
                    "n_agreeing": report.n_agreeing,
                    "relaxed_mapping": report.mapping.relaxed,
                }
                for report in reports
            ],
        }
        return payload, counted.calls

    @pytest.mark.parametrize("module_id", [MODULE_A, "map.kegg_to_uniprot"])
    def test_payload_unchanged_and_calls_counted(self, module_id):
        service = AnnotationService(memoize=True)
        service.register(module_id)
        service.generate(module_id)
        before = service.stats()["cache"]
        payload = service.match(module_id)
        after = service.stats()["cache"]
        expected, n_calls = self.expected_payload(service, module_id)
        assert payload == expected
        assert n_calls > 0
        lookups = sum(after[k] - before[k] for k in ("hits", "negative_hits", "misses"))
        assert lookups == n_calls


# ----------------------------------------------------------------------
# Error mapping
# ----------------------------------------------------------------------
class TestErrorMapping:
    def test_bad_json_body_is_400(self, server):
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=30.0
        )
        try:
            connection.request("POST", "/v1/generate", body="{nope")
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert "not JSON" in body["error"]

    def test_missing_module_id_is_400(self, server):
        status, _, body = request(server, "POST", "/v1/generate", {"oops": 1})
        assert status == 400
        assert "module_id" in body["error"]

    @pytest.mark.parametrize("bad", ["soon", "-5", "0"])
    def test_bad_deadline_header_is_400(self, server, bad):
        status, _, body = request(
            server,
            "POST",
            "/v1/generate",
            {"module_id": MODULE_A},
            headers={"X-Deadline-Ms": bad},
        )
        assert status == 400
        assert "X-Deadline-Ms" in body["error"]

    def test_unknown_module_is_404(self, server):
        for path in ("/v1/modules", "/v1/generate", "/v1/match"):
            status, _, body = request(
                server, "POST", path, {"module_id": "no.such_module"}
            )
            assert status == 404
            assert "no.such_module" in body["error"]

    def test_unknown_route_is_404(self, server):
        assert request(server, "GET", "/v2/anything")[0] == 404
        assert request(server, "GET", "/v1/nothing")[0] == 404

    def test_wrong_method_is_405(self, server):
        assert request(server, "GET", "/v1/generate")[0] == 405
        assert request(server, "GET", "/v1/match")[0] == 405
        assert request(server, "POST", "/v1/campaigns/nightly")[0] == 405

    def test_unregistered_module_is_409(self, server):
        # ret.* modules exist in the catalog but no test registers them.
        status, _, body = request(
            server, "POST", "/v1/generate", {"module_id": "ret.get_uniprot_record"}
        )
        assert status == 409
        assert "not registered" in body["error"]

    def test_campaigns_without_journal_is_404(self, server):
        status, _, body = request(server, "GET", "/v1/campaigns/nightly")
        assert status == 404
        assert "journal" in body["error"]


# ----------------------------------------------------------------------
# Backpressure: rate limiting, saturation, deadlines
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_rate_limited_tenant_gets_429_others_unaffected(self, service):
        config = ServeConfig(rate=0.001, burst=2)
        with AnnotationServer(service, config) as server:
            alice = {"X-Api-Key": "alice"}
            assert request(server, "GET", "/v1/modules", headers=alice)[0] == 200
            assert request(server, "GET", "/v1/modules", headers=alice)[0] == 200
            status, headers, body = request(
                server, "GET", "/v1/modules", headers=alice
            )
            assert status == 429
            assert body["reason"] == "rate-limited"
            assert body["retry_after_s"] > 0
            assert int(headers["Retry-After"]) >= 1
            # bob's bucket is untouched by alice's spending.
            assert (
                request(server, "GET", "/v1/modules", headers={"X-Api-Key": "bob"})[0]
                == 200
            )
            snapshot = server.http_snapshot()
            assert snapshot["rate_limited_by_tenant"] == {"alice": 1}
            assert snapshot["tenants"]["alice"]["limited"] == 1
            assert snapshot["tenants"]["bob"]["limited"] == 0

    def test_saturated_server_sheds_with_retry_after(self, service):
        config = ServeConfig(max_inflight=1, max_queue=0, rate=None)
        with AnnotationServer(service, config) as server:
            server.admission.acquire()  # wedge the only slot
            try:
                status, headers, body = request(server, "GET", "/v1/modules")
                assert status == 429
                assert body["reason"] == "saturated"
                assert int(headers["Retry-After"]) >= 1
                # Health and metrics bypass admission: a saturated
                # server stays observable.
                assert request(server, "GET", "/healthz")[0] == 200
                assert request(server, "GET", "/metrics")[0] == 200
            finally:
                server.admission.release()
            assert request(server, "GET", "/v1/modules")[0] == 200
            snapshot = server.http_snapshot()
            assert snapshot["shed_total"] == 1

    def test_spent_deadline_is_504(self):
        service = AnnotationService(memoize=False, latency_ms=20.0)
        with AnnotationServer(service, ServeConfig(rate=None)) as server:
            request(server, "POST", "/v1/modules", {"module_id": MODULE_A})
            status, _, body = request(
                server,
                "POST",
                "/v1/generate",
                {"module_id": MODULE_A},
                headers={"X-Deadline-Ms": "5"},
            )
            assert status == 504
            assert body["reason"] == "deadline"
            assert server.http_snapshot()["deadline_exceeded_total"] == 1
            # Without the header the same request succeeds.
            status, _, body = request(
                server, "POST", "/v1/generate", {"module_id": MODULE_A}
            )
            assert status == 200
            assert body["n_examples"] > 0


# ----------------------------------------------------------------------
# Observability: exposition, trace join, access log
# ----------------------------------------------------------------------
class TestObservability:
    def test_exposition_carries_http_series(self, server):
        request(server, "GET", "/healthz")
        request(server, "POST", "/v1/modules", {"module_id": MODULE_A})
        server.sampler.sample()
        status, headers, text = request(server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        types, samples = parse_exposition(text)
        assert types["repro_http_requests_total"] == "counter"
        assert types["repro_http_request_latency_ms"] == "histogram"
        assert types["repro_http_inflight"] == "gauge"
        assert types["repro_http_shed_total"] == "counter"
        assert types["repro_slo_burn_rate"] == "gauge"
        healthz_key = (
            "repro_http_requests_total",
            (("endpoint", "/healthz"), ("method", "GET"), ("status", "200")),
        )
        assert samples[healthz_key] >= 1
        assert samples[("repro_http_inflight_limit", ())] == 8
        no_5xx = [
            key
            for key in samples
            if key[0] == "repro_http_requests_total"
            and dict(key[1])["status"].startswith("5")
        ]
        assert no_5xx == []

    def test_metrics_json_merges_http_and_slo(self, server):
        request(server, "GET", "/healthz")
        status, _, body = request(server, "GET", "/metrics.json")
        assert status == 200
        assert body["http"]["requests_total"] >= 1
        assert "slo" in body
        assert body["http"]["max_inflight"] == 8

    def test_trace_id_joins_engine_spans(self):
        service = AnnotationService(memoize=False)
        with AnnotationServer(service, ServeConfig(rate=None)) as server:
            request(server, "POST", "/v1/modules", {"module_id": MODULE_B})
            status, headers, body = request(
                server,
                "POST",
                "/v1/generate",
                {"module_id": MODULE_B},
                headers={"X-Api-Key": "acme"},
            )
            assert status == 200
            trace_id = headers["X-Trace-Id"]
            assert body["trace_id"] == trace_id
            attributes = [
                span.attributes for span in service.engine.tracer.traces()
            ]
        tagged = [
            attrs
            for attrs in attributes
            if attrs.get("http_trace_id") == trace_id
        ]
        # Every invocation made on this request's behalf carries its id.
        assert tagged
        assert all(attrs["http_tenant"] == "acme" for attrs in tagged)

    def test_access_log_is_structured(self, service):
        class Stream:
            def __init__(self):
                self.lines = []

            def write(self, line):
                self.lines.append(line)

            def flush(self):
                pass

        stream = Stream()
        config = ServeConfig(rate=None, log_stream=stream)
        with AnnotationServer(service, config) as server:
            status, headers, _ = request(
                server, "GET", "/healthz", headers={"X-Api-Key": "ops"}
            )
            assert status == 200
            entries = [json.loads(line) for line in stream.lines]
            assert entries == list(server.access_log)
        entry = entries[-1]
        assert entry["trace_id"] == headers["X-Trace-Id"]
        assert entry["tenant"] == "ops"
        assert entry["method"] == "GET"
        assert entry["path"] == "/healthz"
        assert entry["status"] == 200
        assert entry["elapsed_ms"] >= 0


# ----------------------------------------------------------------------
# Campaign endpoints over a real journal
# ----------------------------------------------------------------------
class TestCampaignEndpoints:
    def test_progress_and_alerts_from_the_journal(self, service, tmp_path):
        config = ServeConfig(rate=None, db=str(tmp_path / "serve.sqlite"))
        with AnnotationServer(service, config) as server:
            request(server, "GET", "/healthz")
            server.sampler.sample()
            status, _, body = request(server, "GET", "/v1/campaigns/http-server")
            assert status == 200
            assert body["campaign_id"] == "http-server"
            assert body["n_planned"] == 0
            status, _, body = request(
                server, "GET", "/v1/campaigns/http-server/alerts"
            )
            assert status == 200
            assert body["campaign_id"] == "http-server"
            assert isinstance(body["alerts"], list)
            status, _, body = request(server, "GET", "/v1/campaigns/nope")
            assert status == 404
            assert "nope" in body["error"]
            assert (
                request(server, "GET", "/v1/campaigns/http-server/bogus")[0]
                == 404
            )


# ----------------------------------------------------------------------
# HTTP SLOs: 5xx burn the availability budget, 4xx do not
# ----------------------------------------------------------------------
class TestHttpSlo:
    def _sampled_burst(self, monkeypatch, tmp_path, path, n=8):
        """Sample, send ``n`` requests to ``path``, sample again; returns
        the statuses, the live firing set, and the journaled events."""
        service = AnnotationService()

        def broken(module_id):
            raise RuntimeError("injected service fault")

        monkeypatch.setattr(service, "generate", broken)
        config = ServeConfig(rate=None, db=str(tmp_path / "slo.sqlite"))
        with AnnotationServer(service, config) as server:
            server.sampler.sample()
            statuses = [
                request(server, "POST", path, {"module_id": MODULE_A})[0]
                for _ in range(n)
            ]
            server.sampler.sample()
            firing = {
                (alert.slo, alert.subject)
                for alert in server.sampler.evaluator.firing()
            }
            events = server.journal.alerts("http-server")
        return statuses, firing, events

    def test_5xx_burst_fires_http_availability(self, monkeypatch, tmp_path):
        statuses, firing, events = self._sampled_burst(
            monkeypatch, tmp_path, "/v1/generate"
        )
        assert set(statuses) == {500}
        assert ("http-availability", "campaign") in firing
        journaled = [
            event for event in events if event["slo"] == "http-availability"
        ]
        assert [event["state"] for event in journaled] == ["firing"]
        # A standalone server has no slot, and its events carry none.
        assert all("slot" not in event for event in events)

    def test_4xx_burst_does_not_fire(self, monkeypatch, tmp_path):
        statuses, firing, events = self._sampled_burst(
            monkeypatch, tmp_path, "/v1/no-such-route"
        )
        assert set(statuses) == {404}
        assert ("http-availability", "campaign") not in firing
        assert not [
            event for event in events if event["slo"] == "http-availability"
        ]


# ----------------------------------------------------------------------
# Port-in-use regression: both server classes must refuse with a
# ServeError naming the squatted port, not a bare OSError traceback.
# ----------------------------------------------------------------------
class TestPortInUse:
    def test_annotation_server_reports_squatted_port(self, service):
        with AnnotationServer(service, ServeConfig()) as holder:
            port = holder.port
            with pytest.raises(ServeError, match=str(port)):
                AnnotationServer(service, ServeConfig(port=port))

    def test_metrics_server_reports_squatted_port(self, service):
        with AnnotationServer(service, ServeConfig()) as holder:
            port = holder.port
            with pytest.raises(ServeError, match=str(port)):
                MetricsServer(MetricsExporter(service.engine), port=port)
