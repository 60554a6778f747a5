"""Tests of metrics export: the text exposition format parses, label
values escape, histogram buckets are cumulative, counters only ever go
up, and the scrape endpoint serves."""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.request

import pytest

from repro.core.generation import ExampleGenerator
from repro.engine import (
    BreakerPolicy,
    ConformancePolicy,
    EngineConfig,
    InvocationEngine,
    LatencyHistogram,
    Telemetry,
    WatchdogPolicy,
)
from repro.obs import (
    MetricsExporter,
    MetricsServer,
    escape_label_value,
    render_prometheus,
)

# ----------------------------------------------------------------------
# A strict text-exposition parser: HELP/TYPE comments, then samples of
# the form ``name{label="value",...} number``.  Chokes on anything the
# format forbids — an unescaped newline in a label value, a sample for
# an undeclared metric, a non-numeric value.
# ----------------------------------------------------------------------
_SAMPLE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*",?)*)\})?'
    r' (?P<value>[+-]?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|Inf)|NaN)$'
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text: str):
    """Return ``(types, samples)``; raise AssertionError on bad lines."""
    assert text.endswith("\n"), "exposition must end with a newline"
    types: "dict[str, str]" = {}
    samples: "dict[tuple, float]" = {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in ("counter", "gauge", "histogram"), line
            assert name not in types, f"duplicate TYPE for {name}"
            types[name] = kind
            continue
        match = _SAMPLE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        name = match.group("name")
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in types or base in types, f"undeclared metric: {name}"
        labels = tuple(sorted(_LABEL.findall(match.group("labels") or "")))
        key = (name, labels)
        assert key not in samples, f"duplicate sample: {key}"
        value = match.group("value")
        samples[key] = float(value.replace("Inf", "inf"))
    return types, samples


def _bucket_samples(samples: dict, metric: str) -> "list[tuple[str, float]]":
    """``(le, value)`` pairs of one histogram, declaration order lost —
    re-sorted by bound with ``+Inf`` last."""
    found = [
        (dict(labels)["le"], value)
        for (name, labels), value in samples.items()
        if name == f"{metric}_bucket"
    ]
    return sorted(
        found, key=lambda pair: float("inf") if pair[0] == "+Inf" else float(pair[0])
    )


# ----------------------------------------------------------------------
# Escaping
# ----------------------------------------------------------------------
class TestEscaping:
    @pytest.mark.parametrize(
        ("raw", "escaped"),
        [
            ("plain", "plain"),
            ('say "hi"', r'say \"hi\"'),
            ("back\\slash", r"back\\slash"),
            ("two\nlines", r"two\nlines"),
            ('a"b\\c\nd', r'a\"b\\c\nd'),
        ],
    )
    def test_escape_label_value(self, raw, escaped):
        assert escape_label_value(raw) == escaped

    def test_hostile_provider_names_render_parseable(self):
        hostile = 'evil "provider"\nwith\\escapes'
        stats = {
            "counters": {},
            "breaker": {
                hostile: {"state": "open", "times_opened": 2, "fast_failures": 5},
            },
        }
        text = render_prometheus(stats)
        # Every line still parses — the newline did not split a sample.
        _, samples = parse_exposition(text)
        assert f'provider="{escape_label_value(hostile)}"' in text
        key = ("repro_breaker_state", (("provider", escape_label_value(hostile)),))
        assert samples[key] == 1  # open encodes as 1


# ----------------------------------------------------------------------
# Histogram rendering
# ----------------------------------------------------------------------
class TestHistogram:
    def test_bucket_boundaries_are_inclusive_upper_bounds(self):
        telemetry = Telemetry()
        histogram = telemetry.histogram
        histogram.record(0.05)   # lands exactly on the first bound
        histogram.record(0.06)   # first bound exceeded -> second bucket
        histogram.record(2000.0)  # beyond the last bound -> +Inf only
        text = render_prometheus(telemetry.snapshot())
        _, samples = parse_exposition(text)

        buckets = dict(_bucket_samples(samples, "repro_invocation_latency_ms"))
        assert buckets["0.05"] == 1
        assert buckets["0.1"] == 2
        assert buckets["1000"] == 2
        assert buckets["+Inf"] == 3
        assert samples[("repro_invocation_latency_ms_count", ())] == 3
        assert samples[("repro_invocation_latency_ms_sum", ())] == pytest.approx(
            2000.11
        )

    def test_buckets_are_cumulative_and_complete(self):
        telemetry = Telemetry()
        for latency in (0.01, 0.3, 7.0, 40.0, 999.0):
            telemetry.histogram.record(latency)
        _, samples = parse_exposition(render_prometheus(telemetry.snapshot()))

        buckets = _bucket_samples(samples, "repro_invocation_latency_ms")
        bounds = [le for le, _ in buckets]
        assert bounds == [f"{b:g}" for b in LatencyHistogram.BOUNDS_MS] + ["+Inf"]
        values = [value for _, value in buckets]
        assert values == sorted(values)  # cumulative: non-decreasing
        assert values[-1] == samples[("repro_invocation_latency_ms_count", ())]


# ----------------------------------------------------------------------
# A real engine's exposition
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def full_engine(setup):
    """One engine with every layer configured, driven over two passes
    (the second pass is served from cache)."""
    engine = InvocationEngine(
        EngineConfig(
            cache_size=256,
            conformance=ConformancePolicy(),
            watchdog=WatchdogPolicy(budget=30.0),
            breaker=BreakerPolicy(),
            tracing=True,
        )
    )
    generator = ExampleGenerator(setup.ctx, setup.pool, engine=engine)
    for _ in range(2):
        generator.generate_many(setup.catalog[:3])
    return engine


class TestEngineExposition:
    def test_full_snapshot_renders_parseable(self, full_engine):
        _, samples = parse_exposition(MetricsExporter(full_engine).to_prometheus())

        assert samples[("repro_invocations_total", (("outcome", "ok"),))] > 0
        assert samples[("repro_cache_hits_total", ())] > 0
        assert samples[("repro_conformance_checked_total", ())] > 0
        assert samples[("repro_watchdog_timeouts_total", ())] == 0
        assert samples[("repro_tracing_traces_kept", ())] > 0
        providers = [
            dict(labels)["provider"]
            for (name, labels) in samples
            if name == "repro_provider_availability"
        ]
        assert providers and all(
            samples[("repro_provider_availability", (("provider", p),))] == 1.0
            for p in providers
        )

    def test_every_metric_is_namespaced(self, full_engine):
        types, samples = parse_exposition(
            MetricsExporter(full_engine, namespace="acme").to_prometheus()
        )
        assert types and all(name.startswith("acme_") for name in types)
        assert all(name.startswith("acme_") for name, _ in samples)

    def test_counters_are_monotonic_across_more_work(self, setup, full_engine):
        """Scraping, doing more work, and scraping again never shows a
        counter going backwards — the resume-safety property a
        Prometheus ``rate()`` depends on."""
        exporter = MetricsExporter(full_engine)
        types, before = parse_exposition(exporter.to_prometheus())
        ExampleGenerator(
            setup.ctx, setup.pool, engine=full_engine
        ).generate_many(setup.catalog[3:6])
        _, after = parse_exposition(exporter.to_prometheus())

        counters = [
            key for key in before
            if types.get(re.sub(r"_(bucket|sum|count)$", "", key[0])) == "counter"
            or types.get(key[0]) == "counter"
        ]
        assert counters
        for key in counters:
            assert after[key] >= before[key], f"{key} went backwards"
        assert (
            after[("repro_invocations_total", (("outcome", "ok"),))]
            > before[("repro_invocations_total", (("outcome", "ok"),))]
        )

    def test_json_export_round_trips_the_snapshot(self, full_engine):
        exporter = MetricsExporter(full_engine)
        decoded = json.loads(exporter.to_json())
        snapshot = exporter.snapshot()
        assert decoded["counters"] == snapshot["counters"]
        assert set(decoded) == set(snapshot)


# ----------------------------------------------------------------------
# Absent layers
# ----------------------------------------------------------------------
def test_bare_snapshot_skips_unconfigured_layers():
    text = render_prometheus(Telemetry().snapshot())
    types, _ = parse_exposition(text)
    assert "repro_invocations_total" in types
    for absent in ("repro_cache_entries", "repro_breaker_state",
                   "repro_watchdog_timeouts_total", "repro_tracing_traces_kept",
                   "repro_campaign_worker_up", "repro_serve_replica_up"):
        assert absent not in types


def test_workers_section_renders_per_shard_gauges():
    rows = [
        {"shard": 0, "worker": 0, "alive": True, "invocations": 12,
         "restarts": 0, "heartbeat_age": 0.5, "n_done": 3, "n_planned": 5},
        {"shard": 1, "worker": 4, "alive": False, "invocations": 7,
         "restarts": 2, "heartbeat_age": None, "n_done": 1, "n_planned": 5},
    ]
    text = render_prometheus({"workers": rows})
    types, samples = parse_exposition(text)
    assert types["repro_campaign_worker_up"] == "gauge"
    assert types["repro_campaign_worker_restarts_total"] == "counter"
    assert ('repro_campaign_worker_up{worker="0",shard="0"} 1') in text
    assert ('repro_campaign_worker_up{worker="4",shard="1"} 0') in text
    assert ('repro_campaign_worker_invocations_total{worker="4",shard="1"} 7'
            ) in text
    # A shard with no heartbeat row has no age sample at all, rather
    # than a misleading zero.
    assert 'repro_campaign_worker_heartbeat_age_seconds{worker="4"' not in text
    assert 'repro_campaign_worker_heartbeat_age_seconds{worker="0"' in text


def test_replicas_section_renders_per_replica_gauges():
    rows = [
        {"replica": 0, "alive": True, "requests_total": 41, "restarts": 0,
         "heartbeat_age": 0.4, "attempt": 1},
        {"replica": 1, "alive": False, "requests_total": 7, "restarts": 2,
         "heartbeat_age": None, "attempt": 3},
    ]
    text = render_prometheus({"replicas": rows})
    types, _ = parse_exposition(text)
    assert types["repro_serve_replica_up"] == "gauge"
    assert types["repro_serve_replica_restarts_total"] == "counter"
    assert 'repro_serve_replica_up{replica="0"} 1' in text
    assert 'repro_serve_replica_up{replica="1"} 0' in text
    assert 'repro_serve_replica_requests_total{replica="0"} 41' in text
    assert 'repro_serve_replica_restarts_total{replica="1"} 2' in text
    assert 'repro_serve_replica_attempt{replica="1"} 3' in text
    assert 'repro_serve_replica_heartbeat_age_seconds{replica="1"' not in text
    assert 'repro_serve_replica_heartbeat_age_seconds{replica="0"} 0.4' in text


def test_reuse_port_lets_two_servers_share_one_port():
    import http.server

    from repro.obs import bind_threading_server

    class Handler(http.server.BaseHTTPRequestHandler):
        pass

    first = bind_threading_server(
        Handler, "127.0.0.1", 0, "test", reuse_port=True
    )
    try:
        port = first.server_address[1]
        second = bind_threading_server(
            Handler, "127.0.0.1", port, "test", reuse_port=True
        )
        second.server_close()
    finally:
        first.server_close()


# ----------------------------------------------------------------------
# The scrape endpoint
# ----------------------------------------------------------------------
class TestMetricsServer:
    def test_serves_prometheus_json_and_404(self, full_engine):
        with MetricsServer(MetricsExporter(full_engine), port=0) as server:
            base = f"http://{server.host}:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics", timeout=10) as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith("text/plain")
                parse_exposition(response.read().decode("utf-8"))
            with urllib.request.urlopen(
                f"{base}/metrics.json", timeout=10
            ) as response:
                assert response.headers["Content-Type"].startswith(
                    "application/json"
                )
                assert "counters" in json.loads(response.read())
            with pytest.raises(urllib.error.HTTPError) as error:
                urllib.request.urlopen(f"{base}/nope", timeout=10)
            assert error.value.code == 404
        # The context manager released the socket: a second bind works.
        with MetricsServer(MetricsExporter(full_engine), port=0):
            pass


# ----------------------------------------------------------------------
# The CLI surface
# ----------------------------------------------------------------------
class TestMetricsCli:
    def test_metrics_prints_parseable_prometheus(self, capsys):
        from repro.cli import main

        assert main(["metrics", "--limit", "2", "--repeat", "1"]) == 0
        types, samples = parse_exposition(capsys.readouterr().out)
        assert samples[("repro_invocations_total", (("outcome", "ok"),))] > 0

    def test_metrics_json_flag(self, capsys):
        from repro.cli import main

        assert main(["metrics", "--limit", "2", "--repeat", "1", "--json"]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["counters"]["ok"] > 0

    def test_metrics_unknown_module_exits_nonzero(self, capsys):
        from repro.cli import main

        assert main(["metrics", "--module", "no.such"]) == 2
        assert "no module" in capsys.readouterr().err

    def test_stats_carry_no_event_log_keys(self, capsys, full_engine):
        from repro.cli import main

        assert main(
            ["engine-stats", "--limit", "5", "--repeat", "1",
             "--fault-rate", "0.4", "--json"]
        ) == 0
        cli_stats = json.loads(capsys.readouterr().out)["stats"]
        for stats in (full_engine.stats(), cli_stats):
            assert not {"n_events", "max_events", "dropped_events"} & set(stats)


# ----------------------------------------------------------------------
# Scrape-under-load: rendering must never expose a torn histogram
# ----------------------------------------------------------------------
class TestConcurrentScrape:
    def test_histogram_never_torn_while_engine_is_invoking(self, setup):
        """Scrape repeatedly while a writer thread drives generation:
        every exposition must parse, every histogram's cumulative
        buckets must be monotone non-decreasing, and the ``+Inf`` bucket
        must equal ``_count`` — a torn read (half-updated buckets vs a
        newer count) violates one of those."""
        import threading

        engine = InvocationEngine(EngineConfig(parallelism=2))
        generator = ExampleGenerator(setup.ctx, setup.pool, engine=engine)
        stop = threading.Event()
        failures = []

        def writer():
            while not stop.is_set():
                try:
                    generator.generate_many(setup.catalog[:4])
                except Exception as error:  # pragma: no cover - diagnostic
                    failures.append(error)
                    return

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            scrapes = 0
            while scrapes < 40 and thread.is_alive():
                text = render_prometheus(engine.stats())
                types, samples = parse_exposition(text)
                buckets = _bucket_samples(samples, "repro_invocation_latency_ms")
                assert buckets, "histogram must be exported"
                values = [value for _le, value in buckets]
                assert values == sorted(values), f"non-monotone buckets: {buckets}"
                assert buckets[-1][0] == "+Inf"
                assert buckets[-1][1] == samples[
                    ("repro_invocation_latency_ms_count", ())
                ]
                scrapes += 1
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not failures, failures
        assert scrapes == 40
