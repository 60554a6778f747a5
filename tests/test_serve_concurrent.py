"""Concurrent stress of the annotation server: many threads hammering
mixed endpoints while a journaled campaign (the sampler's synthetic
``http-server`` row) runs in the background.  Pins down the invariants
the serving layer promises under pressure:

* the server never answers 5xx;
* the cumulative counters (requests, admitted, shed, latency count)
  are monotone under concurrent observation;
* a rate-limited tenant's 429s stay its own — every other tenant's
  requests are unaffected.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.serve import AnnotationServer, AnnotationService, ServeConfig

MODULES = ("xf.uniprot_to_fasta", "xf.uniprot_to_xml")
HAMMERS = 10
REQUESTS_PER_HAMMER = 12


def _get(server, method, path, body=None, headers=None):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30.0)
    try:
        raw = None if body is None else json.dumps(body)
        connection.request(method, path, body=raw, headers=dict(headers or {}))
        response = connection.getresponse()
        payload = response.read()
        return response.status, payload
    finally:
        connection.close()


class Hammer(threading.Thread):
    """One worker cycling through every endpoint on a keep-alive
    connection, collecting observed statuses."""

    MIX = (
        ("POST", "/v1/generate"),
        ("GET", "/v1/modules"),
        ("POST", "/v1/match"),
        ("GET", "/healthz"),
        ("GET", "/v1/campaigns/http-server"),
        ("GET", "/metrics.json"),
    )

    def __init__(self, index, server, barrier):
        super().__init__(name=f"hammer-{index}", daemon=True)
        self.index = index
        self.server = server
        self.barrier = barrier
        self.tenant = f"hammer-{index:02d}"
        self.statuses: "list[int]" = []
        self.error: "Exception | None" = None

    def run(self):
        connection = http.client.HTTPConnection(
            self.server.host, self.server.port, timeout=30.0
        )
        self.barrier.wait()
        try:
            for turn in range(REQUESTS_PER_HAMMER):
                method, path = self.MIX[(self.index + turn) % len(self.MIX)]
                body = None
                headers = {"X-Api-Key": self.tenant}
                if method == "POST":
                    body = json.dumps(
                        {"module_id": MODULES[(self.index + turn) % len(MODULES)]}
                    )
                    headers["Content-Type"] = "application/json"
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                response.read()
                self.statuses.append(response.status)
        except Exception as error:  # noqa: BLE001 - reported by the test
            self.error = error
        finally:
            connection.close()


class Greedy(threading.Thread):
    """A tenant with a starvation budget, hammering until limited."""

    def __init__(self, server, barrier):
        super().__init__(name="greedy", daemon=True)
        self.server = server
        self.barrier = barrier
        self.statuses: "list[int]" = []
        self.retry_afters: "list[str | None]" = []
        self.error: "Exception | None" = None

    def run(self):
        connection = http.client.HTTPConnection(
            self.server.host, self.server.port, timeout=30.0
        )
        self.barrier.wait()
        try:
            for _ in range(10):
                connection.request(
                    "GET", "/v1/modules", headers={"X-Api-Key": "greedy"}
                )
                response = connection.getresponse()
                payload = response.read()
                self.statuses.append(response.status)
                if response.status == 429:
                    self.retry_afters.append(response.getheader("Retry-After"))
                    assert json.loads(payload)["reason"] == "rate-limited"
        except Exception as error:  # noqa: BLE001
            self.error = error
        finally:
            connection.close()


class Poller(threading.Thread):
    """Samples the server's counters while the hammers run."""

    def __init__(self, server, done):
        super().__init__(name="poller", daemon=True)
        self.server = server
        self.done = done
        self.snapshots: "list[dict]" = []

    def run(self):
        while not self.done.wait(0.01):
            self.snapshots.append(self.server.http_snapshot())
        self.snapshots.append(self.server.http_snapshot())


@pytest.mark.slow
def test_concurrent_mixed_load_while_campaign_runs(tmp_path):
    service = AnnotationService(memoize=True)
    config = ServeConfig(
        max_inflight=4,
        max_queue=256,
        queue_timeout=30.0,
        # Generous default budgets so the hammers are never limited;
        # only the bespoke "greedy" bucket below runs dry.
        rate=10_000.0,
        burst=20_000.0,
        db=str(tmp_path / "serve.sqlite"),
        sample_interval=0.05,
    )
    with AnnotationServer(service, config) as server:
        server.limiter.configure("greedy", rate=0.001, burst=3)
        for module_id in MODULES:
            status, _ = _get(
                server, "POST", "/v1/modules", body={"module_id": module_id}
            )
            assert status in (200, 201)

        barrier = threading.Barrier(HAMMERS + 2)
        done = threading.Event()
        hammers = [Hammer(i, server, barrier) for i in range(HAMMERS)]
        greedy = Greedy(server, barrier)
        poller = Poller(server, done)
        poller.start()
        for worker in [*hammers, greedy]:
            worker.start()
        barrier.wait()
        for worker in [*hammers, greedy]:
            worker.join(120.0)
            assert not worker.is_alive(), f"{worker.name} never finished"
        done.set()
        poller.join(10.0)

        for worker in [*hammers, greedy]:
            assert worker.error is None, f"{worker.name}: {worker.error!r}"

        # 1. The server never broke: no 5xx anywhere, and every hammer
        #    request was answered (shedding was impossible: the queue
        #    out-sizes the whole offered load).
        statuses = [s for hammer in hammers for s in hammer.statuses]
        assert len(statuses) == HAMMERS * REQUESTS_PER_HAMMER
        assert all(status < 500 for status in statuses)
        assert all(status == 200 for status in statuses), sorted(set(statuses))

        # 2. The greedy tenant alone was limited — with Retry-After on
        #    every 429 — and nobody else saw a single 429.
        assert greedy.statuses.count(200) == 3
        assert greedy.statuses.count(429) == 7
        assert all(value is not None for value in greedy.retry_afters)
        snapshot = server.http_snapshot()
        assert snapshot["rate_limited_by_tenant"] == {"greedy": 7}
        assert snapshot["shed_total"] == 0

        # 3. Counters observed concurrently are monotone.
        series = poller.snapshots
        assert len(series) >= 2
        for key in ("requests_total", "admitted_total", "shed_total",
                    "rate_limited_total", "deadline_exceeded_total"):
            values = [snap[key] for snap in series]
            assert values == sorted(values), f"{key} went backwards"
        counts = [snap["latency"]["count"] for snap in series]
        assert counts == sorted(counts)

        # 4. The background campaign really ran: the sampler journaled
        #    samples under the synthetic row while the hammers were
        #    hammering, and the live endpoint served it.
        status, payload = _get(server, "GET", "/v1/campaigns/http-server")
        assert status == 200
        assert json.loads(payload)["campaign_id"] == "http-server"
        assert len(server.sampler.ring) >= 1
        assert len(server.journal.snapshots("http-server")) >= 1
