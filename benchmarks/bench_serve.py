#!/usr/bin/env python
"""Serving-layer benchmark: capacity and deliberate saturation.

``make bench-serve`` runs two phases against in-process servers and
writes the measured numbers to ``BENCH_serve.json``:

* **capacity** — at least 1000 concurrent clients against a generously
  provisioned, memoized server.  Acceptance: **zero 5xx**, zero
  transport errors, every request answered.
* **saturation** — a deliberately tiny admission envelope (2 inflight,
  8 queued) with injected provider latency and memoization off, so the
  offered load far exceeds capacity.  Acceptance: the overflow is shed
  with **429 + Retry-After** (never unbounded queueing, never a 5xx),
  while admitted requests still complete.
* **fleet** — the capacity load again, against a real 2-replica
  ``SO_REUSEPORT`` fleet (``ServeSupervisor`` spawning replica
  processes sharing one port and one state journal).  Acceptance: zero
  5xx, zero transport errors, and a graceful full-fleet drain.

The report carries p50/p95/p99 latency, throughput, and shed rate per
phase, plus the acceptance verdicts, so regressions in the admission
path show up as numbers — not anecdotes.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.modules.catalog import default_catalog
from repro.serve import (
    AnnotationServer,
    AnnotationService,
    FleetConfig,
    LoadProfile,
    ServeConfig,
    ServeSupervisor,
    run_loadgen,
)

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serve.json"


def phase_capacity(module_ids) -> dict:
    """>= 1000 concurrent clients, generous envelope, zero 5xx."""
    service = AnnotationService(memoize=True, watchdog_budget=10.0)
    config = ServeConfig(
        max_inflight=64,
        max_queue=4096,
        queue_timeout=30.0,
        rate=None,  # capacity is about admission, not tenant budgets
    )
    with AnnotationServer(service, config) as server:
        profile = LoadProfile(
            clients=1000,
            requests_per_client=5,
            mix={"generate": 0.5, "match": 0.2, "modules": 0.2, "healthz": 0.1},
            module_ids=module_ids,
            tenants=8,
            timeout=60.0,
        )
        report = run_loadgen(server.host, server.port, profile)
        snapshot = server.http_snapshot()
    result = report.to_dict()
    result["peak_inflight"] = snapshot["peak_inflight"]
    result["peak_queue_depth"] = snapshot["peak_queue_depth"]
    result["accepted"] = (
        report.n_5xx == 0
        and report.transport_errors == 0
        and report.missing_retry_after == 0
    )
    return result


def phase_saturation(module_ids) -> dict:
    """Tiny envelope + slow providers: overflow shed with 429."""
    service = AnnotationService(
        memoize=False, latency_ms=25.0, watchdog_budget=10.0
    )
    config = ServeConfig(
        max_inflight=2,
        max_queue=8,
        queue_timeout=0.05,
        rate=None,
    )
    with AnnotationServer(service, config) as server:
        profile = LoadProfile(
            clients=200,
            requests_per_client=5,
            mix={"generate": 1.0},
            module_ids=module_ids,
            timeout=60.0,
        )
        report = run_loadgen(server.host, server.port, profile)
        snapshot = server.http_snapshot()
    result = report.to_dict()
    result["peak_inflight"] = snapshot["peak_inflight"]
    result["peak_queue_depth"] = snapshot["peak_queue_depth"]
    result["server_shed_total"] = snapshot["shed_total"]
    result["accepted"] = (
        report.n_5xx == 0
        and report.shed > 0
        and report.missing_retry_after == 0
        and snapshot["peak_queue_depth"] <= config.max_queue
    )
    return result


def phase_fleet(module_ids) -> dict:
    """The capacity load against a real 2-replica SO_REUSEPORT fleet."""
    db = os.path.join(tempfile.mkdtemp(prefix="bench-serve-"), "fleet.sqlite")
    config = ServeConfig(
        host="127.0.0.1",
        port=0,
        max_inflight=64,
        max_queue=4096,
        queue_timeout=30.0,
        rate=None,
        db=db,
    )
    fleet = FleetConfig(replicas=2, heartbeat_interval=0.2)
    supervisor = ServeSupervisor(
        config, fleet, service={"memoize": True, "watchdog_budget": 10.0}
    ).start()
    try:
        deadline = time.time() + 60
        while time.time() < deadline:
            supervisor.poll()
            if supervisor.healthy_replicas() == fleet.replicas:
                break
            time.sleep(0.1)
        else:
            raise RuntimeError("fleet replicas never became healthy")
        profile = LoadProfile(
            clients=1000,
            requests_per_client=5,
            mix={"generate": 0.5, "match": 0.2, "modules": 0.2, "healthz": 0.1},
            module_ids=module_ids,
            tenants=8,
            timeout=60.0,
        )
        report = run_loadgen(supervisor.host, supervisor.port, profile)
        per_replica = {
            str(row["replica"]): row["requests_total"]
            for row in supervisor.store.replicas()
        }
        drained = supervisor.drain()
    finally:
        supervisor.close()
    result = report.to_dict()
    result["replicas"] = fleet.replicas
    result["requests_by_replica"] = per_replica
    result["drained"] = drained
    result["accepted"] = (
        report.n_5xx == 0
        and report.transport_errors == 0
        and report.missing_retry_after == 0
        and drained
    )
    return result


def main() -> int:
    module_ids = tuple(m.module_id for m in default_catalog())[:6]
    print("bench-serve: capacity phase (1000 concurrent clients) ...")
    capacity = phase_capacity(module_ids)
    print(
        f"  {capacity['total_requests']} requests, "
        f"{capacity['throughput_rps']} req/s, "
        f"p95 {capacity['latency_ms']['p95']}ms, "
        f"5xx {capacity['n_5xx']}, accepted={capacity['accepted']}"
    )
    print("bench-serve: saturation phase (2 inflight / 8 queued) ...")
    saturation = phase_saturation(module_ids)
    print(
        f"  {saturation['total_requests']} requests, "
        f"shed {saturation['shed']} ({saturation['shed_rate']:.1%}), "
        f"5xx {saturation['n_5xx']}, accepted={saturation['accepted']}"
    )
    print("bench-serve: fleet phase (2 SO_REUSEPORT replicas) ...")
    fleet = phase_fleet(module_ids)
    print(
        f"  {fleet['total_requests']} requests across "
        f"{fleet['replicas']} replicas "
        f"({fleet['requests_by_replica']}), "
        f"{fleet['throughput_rps']} req/s, "
        f"5xx {fleet['n_5xx']}, drained={fleet['drained']}, "
        f"accepted={fleet['accepted']}"
    )
    payload = {
        "benchmark": "serve",
        "phases": {
            "capacity": capacity,
            "saturation": saturation,
            "fleet": fleet,
        },
        "accepted": (
            capacity["accepted"]
            and saturation["accepted"]
            and fleet["accepted"]
        ),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"bench-serve: wrote {OUTPUT}")
    if not payload["accepted"]:
        print("bench-serve: FAIL — acceptance criteria not met", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
