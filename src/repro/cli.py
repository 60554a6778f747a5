"""Command-line interface to the reproduction.

Subcommands::

    repro-cli list [--category C] [--interface I]   browse the catalog
    repro-cli show MODULE_ID                        signature + partitions
    repro-cli annotate MODULE_ID [--max N]          generate data examples
    repro-cli match candidates MODULE_ID            match a decayed module
    repro-cli match index [--db FILE]               journaled signature index
    repro-cli match repair [--synthetic N]          indexed decay repair
    repro-cli suggest MODULE_ID [--limit N]         composition suggestions
    repro-cli redundancy MODULE_ID [--threshold T]  estimate redundancy
    repro-cli describe MODULE_ID                    guess the task from examples
    repro-cli validate WORKFLOW_FILE                statically check a workflow
    repro-cli report [--seed S]                     full paper-vs-measured report
    repro-cli engine-stats [--parallelism N] ...    invocation-engine telemetry
    repro-cli metrics [--json] [--serve]            Prometheus / JSON export
    repro-cli metrics --fleet --db FILE             unified fleet-level scrape
    repro-cli serve [--port P] [--db FILE]          annotation HTTP service
    repro-cli serve --replicas N --db FILE          supervised SO_REUSEPORT fleet
    repro-cli serve fleet --db FILE                 replica fleet + event timeline
    repro-cli loadgen --port P [--clients N]        concurrent load harness
    repro-cli trace ID --db FILE [--slowest N]      campaign span timeline
    repro-cli trace ID --db FILE --fleet            cross-process fleet trace
    repro-cli profile [--campaign ID | --serve]     sampling profiler / fleet profiles
    repro-cli top ID --db FILE [--once]             live campaign dashboard
    repro-cli alerts ID --db FILE [--firing]        journaled SLO / drift alerts
    repro-cli campaign run --db FILE ID [--trace]   crash-safe catalog campaign
    repro-cli campaign run ... --workers N          sharded multi-process run
    repro-cli campaign resume --db FILE ID          continue a killed campaign
    repro-cli campaign status --db FILE [ID]        journal progress
    repro-cli campaign workers --db FILE ID         worker fleet + event timeline

All state is rebuilt deterministically from the seed; the one thing kept
on disk is the campaign journal (``campaign --db``), which is exactly
what makes kill/resume possible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.core.composition import CompositionAdvisor
from repro.core.generation import ExampleGenerator
from repro.core.matching import find_matches
from repro.core.metrics import evaluate_module
from repro.core.partitioning import module_partitions
from repro.core.description import BehaviorDescriber
from repro.core.redundancy import RedundancyDetector
from repro.modules.catalog import DECAYED_PROVIDERS, build_decayed_modules
from repro.workflow import shut_down_providers


def _world(seed: int = 2014):
    from repro.campaign.worker import build_world

    return build_world(seed)


def _find_module(module_id: str, modules) -> "object":
    for module in modules:
        if module.module_id == module_id:
            return module
    raise SystemExit(f"error: no module {module_id!r} (try `repro-cli list`)")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_list(args: argparse.Namespace) -> int:
    _ctx, catalog, _pool = _world(args.seed)
    for module in catalog:
        if args.category and args.category not in module.category.value:
            continue
        if args.interface and args.interface not in module.interface.value:
            continue
        print(
            f"{module.module_id:<32} {module.name:<28} "
            f"{module.category.value:<22} {module.interface.value}"
        )
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    ctx, catalog, _pool = _world(args.seed)
    module = _find_module(args.module_id, catalog)
    print(f"{module.name} ({module.module_id})")
    print(f"  category:  {module.category.value}")
    print(f"  interface: {module.interface.value}")
    print(f"  provider:  {module.provider}")
    print(f"  classes of behavior: {module.behavior.n_classes}")
    partitions = module_partitions(ctx.ontology, module)
    for parameter in module.inputs:
        parts = partitions[f"in:{parameter.name}"]
        print(f"  in  {parameter.name}: {parameter.structural} / {parameter.concept}"
              f"  [{len(parts)} partitions]")
    for parameter in module.outputs:
        parts = partitions[f"out:{parameter.name}"]
        print(f"  out {parameter.name}: {parameter.structural} / {parameter.concept}"
              f"  [{len(parts)} partitions]")
    return 0


def cmd_annotate(args: argparse.Namespace) -> int:
    ctx, catalog, pool = _world(args.seed)
    module = _find_module(args.module_id, catalog)
    report = ExampleGenerator(ctx, pool).generate(module)
    evaluation = evaluate_module(ctx, module, report.examples)
    print(f"generated {report.n_examples} data examples "
          f"({report.invalid_combinations} invalid combinations)")
    print(f"coverage={evaluation.coverage:.2f} "
          f"completeness={evaluation.completeness:.2f} "
          f"conciseness={evaluation.conciseness:.2f}")
    for example in report.examples[: args.max]:
        print()
        print(example.render())
    return 0


def cmd_match_candidates(args: argparse.Namespace) -> int:
    ctx, catalog, pool = _world(args.seed)
    decayed = build_decayed_modules()
    module = _find_module(args.module_id, decayed)
    generator = ExampleGenerator(ctx, pool)
    examples = generator.generate(module).examples
    shut_down_providers(decayed, DECAYED_PROVIDERS)
    if args.db and not args.exhaustive:
        from repro.campaign.journal import CampaignJournal
        from repro.match import CandidateMatcher, MatchAccounting, load_index

        index = load_index(CampaignJournal(args.db), args.campaign)
        modules_by_id = {m.module_id: m for m in list(catalog) + decayed}
        matcher = CandidateMatcher(
            ctx, modules_by_id, {module.module_id: examples}, index,
            engine=generator.engine,
        )
        accounting = MatchAccounting(n_queries=1, n_catalog=len(index))
        accounting.exhaustive_pairs = len(index) - (
            1 if module.module_id in index else 0
        )
        reports = matcher.match_module(module.module_id, accounting)
        print(f"index: {accounting.candidate_pairs} candidates of "
              f"{accounting.exhaustive_pairs} catalog modules "
              f"({accounting.pruning_ratio:.0%} pruned)")
    else:
        reports = find_matches(
            ctx, module, examples, catalog, invoker=generator.engine
        )
    if not reports:
        print("no candidate shares a compatible signature")
        return 1
    for report in reports:
        print(f"{report.kind.value:<12} {report.candidate_id:<34} "
              f"agreed {report.n_agreeing}/{report.n_examples}")
    return 0


class _LazyExamples:
    """An ``examples_by_id`` view that generates on first use, so a
    resumed ``match index`` build never pays example generation for a
    module whose signature is already journaled."""

    def __init__(self, generator: ExampleGenerator, modules) -> None:
        self._generator = generator
        self._modules = {m.module_id: m for m in modules}

    def get(self, module_id: str, default=None):
        module = self._modules.get(module_id)
        if module is None:
            return default
        return self._generator.generate(module).examples


def cmd_match_index(args: argparse.Namespace) -> int:
    from repro.campaign.journal import CampaignJournal
    from repro.match import IndexBuilder, SignatureConfig

    config = SignatureConfig(
        width=args.width, bands=args.bands, seed=args.seed
    )
    if args.synthetic:
        from repro.match import SyntheticCatalogConfig, build_synthetic_catalog

        world = build_synthetic_catalog(
            SyntheticCatalogConfig(seed=args.seed, n_modules=args.synthetic)
        )
        modules = list(world.modules)
        examples_by_id = world.examples_by_id
    else:
        ctx, catalog, pool = _world(args.seed)
        modules = list(catalog)
        if args.limit is not None:
            modules = modules[: args.limit]
        examples_by_id = _LazyExamples(ExampleGenerator(ctx, pool), modules)

    def progress(done: int, total: int, module_id: str) -> None:
        if done % 50 == 0 or done == total:
            print(f"  sketched {done}/{total} ({module_id})", file=sys.stderr)

    journal = CampaignJournal(args.db or ":memory:")
    builder = IndexBuilder(journal, campaign_id=args.campaign, config=config)
    index = builder.build(modules, examples_by_id, progress=progress)

    n = len(index)
    pairs = len(index.candidate_pairs())
    exhaustive = n * (n - 1) // 2
    payload = {
        "campaign": args.campaign,
        "db": args.db or ":memory:",
        "n_modules": n,
        "config": {"width": builder.config.width,
                   "bands": builder.config.bands,
                   "seed": builder.config.seed},
        "stats": index.stats().as_dict(),
        "candidate_pairs": pairs,
        "exhaustive_pairs": exhaustive,
        "pruning_ratio": round(1 - pairs / exhaustive, 6) if exhaustive else 0.0,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"indexed {n} modules into campaign {args.campaign!r} "
              f"({payload['db']})")
        stats = payload["stats"]
        print(f"  buckets: {stats['n_band_buckets']} band, "
              f"{stats['n_token_buckets']} token, "
              f"{stats['n_input_buckets']} input "
              f"({stats['n_empty']} empty signatures)")
        print(f"  candidate pairs: {pairs} of {exhaustive} exhaustive "
              f"({payload['pruning_ratio']:.0%} pruned)")
    return 0


def cmd_match_repair(args: argparse.Namespace) -> int:
    from repro.match import IndexedRepairPlanner, render_repair_plan

    if args.synthetic:
        from repro.match import (
            SignatureIndex,
            SyntheticCatalogConfig,
            build_synthetic_catalog,
        )
        from repro.workflow.decay import decay_fraction

        world = build_synthetic_catalog(
            SyntheticCatalogConfig(seed=args.seed, n_modules=args.synthetic)
        )
        index = SignatureIndex()
        for module in world.modules:
            index.add_module(module, world.examples_by_id[module.module_id])
        downed = decay_fraction(
            world.modules, args.decay_fraction, seed=args.seed
        )
        for module in world.modules:
            if not module.available:
                index.remove(module.module_id)
        print(f"decay event: {len(downed)} providers down")
        planner = IndexedRepairPlanner(
            world.ctx, world.modules_by_id, world.examples_by_id,
            index, world.pool,
        )
        plan = planner.plan(world.workflows)
    else:
        from repro.experiments.setup import default_setup

        setup = default_setup(args.seed)
        setup.repository  # fire the §6 decay event
        planner = IndexedRepairPlanner(
            setup.ctx, setup.modules_by_id, setup.examples_by_id,
            setup.match_index, setup.pool, engine=setup.engine,
        )
        plan = planner.plan(
            setup.repository.workflows, setup.historical_traces
        )
    print(render_repair_plan(plan))
    if args.json:
        print(json.dumps(plan.summary(), indent=2, sort_keys=True))
    return 0


def cmd_suggest(args: argparse.Namespace) -> int:
    ctx, catalog, pool = _world(args.seed)
    module = _find_module(args.module_id, catalog)
    generator = ExampleGenerator(ctx, pool)
    examples = generator.generate(module).examples
    advisor = CompositionAdvisor(ctx, catalog, pool, invoker=generator.engine)
    suggestions = advisor.suggest_successors(module, examples, limit=args.limit)
    for suggestion in suggestions:
        marker = "" if suggestion.annotation_compatible else "  [value-level only]"
        print(f"{suggestion.output} -> {suggestion.consumer_id}.{suggestion.input}"
              f"{marker}")
    return 0


def cmd_redundancy(args: argparse.Namespace) -> int:
    ctx, catalog, pool = _world(args.seed)
    module = _find_module(args.module_id, catalog)
    examples = ExampleGenerator(ctx, pool).generate(module).examples
    report = RedundancyDetector(args.threshold).detect(module.module_id, examples)
    print(f"{report.n_examples} examples -> {len(report.clusters)} estimated classes "
          f"({report.estimated_redundant} redundant)")
    for index, cluster in enumerate(report.clusters):
        print(f"  class {index + 1}: examples {list(cluster)}")
    return 0


def cmd_describe(args: argparse.Namespace) -> int:
    ctx, catalog, pool = _world(args.seed)
    module = _find_module(args.module_id, catalog)
    examples = ExampleGenerator(ctx, pool).generate(module).examples
    description = BehaviorDescriber().describe(module.module_id, examples)
    guessed = (
        description.guessed_category.value
        if description.guessed_category
        else "(not identifiable from the examples)"
    )
    confidence = "confident" if description.confident else "tentative"
    print(f"guessed kind: {guessed}  [{confidence}]")
    print(f"hypothesis:   {description.text}")
    print(f"actual kind:  {module.category.value}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.modules.catalog import build_decayed_modules
    from repro.workflow.io import workflow_from_dict, workflow_from_xml
    from repro.workflow.validation import validate_workflow

    ctx, catalog, _pool = _world(args.seed)
    modules = {m.module_id: m for m in catalog}
    if args.include_decayed:
        modules.update({m.module_id: m for m in build_decayed_modules()})
    text = Path(args.workflow_file).read_text(encoding="utf-8")
    if text.lstrip().startswith("<"):
        workflow = workflow_from_xml(text)
    else:
        workflow = workflow_from_dict(_json.loads(text))
    report = validate_workflow(workflow, modules, ctx.ontology)
    if report.ok:
        print(f"{workflow.workflow_id}: OK "
              f"({len(workflow.steps)} steps, {len(workflow.links)} links)")
        return 0
    for issue in report.issues:
        print(f"{issue.kind.value}: {issue.detail}")
    return 1


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_all
    from repro.experiments.setup import default_setup

    print(run_all(default_setup(args.seed)))
    return 0


class _UnknownModuleError(Exception):
    """A ``--module`` id the catalog does not supply (exit code 2)."""


def _tuned_generation(args: argparse.Namespace, tracing: bool = False):
    """Run ``--repeat`` generation passes through a tuned engine.

    The shared workload behind ``engine-stats`` and ``metrics``: build
    an engine from the command-line knobs, drive generation over the
    (possibly restricted) catalog, and hand back ``(engine, reports)``.
    """
    from repro.core.generation import ExampleGenerator
    from repro.engine import (
        ConformancePolicy,
        EngineConfig,
        FaultPlan,
        InvocationEngine,
        RetryPolicy,
        WatchdogPolicy,
    )

    if args.repeat < 1:
        raise SystemExit("error: --repeat must be at least 1")
    if args.parallelism < 1:
        raise SystemExit("error: --parallelism must be at least 1")
    if not 0.0 <= args.fault_rate <= 1.0:
        raise SystemExit("error: --fault-rate must lie in [0, 1]")
    ctx, catalog, pool = _world(args.seed)
    if args.module:
        by_id = {module.module_id: module for module in catalog}
        unknown = [module_id for module_id in args.module if module_id not in by_id]
        if unknown:
            raise _UnknownModuleError(
                f"error: no module {', '.join(sorted(unknown))!s} "
                "(try `repro-cli list`)"
            )
        catalog = [by_id[module_id] for module_id in args.module]
    if args.limit is not None:
        catalog = catalog[: args.limit]
    fault_plan = None
    if args.fault_rate > 0 or args.latency_ms > 0:
        fault_plan = FaultPlan(
            seed=args.seed,
            transient_failure_rate=args.fault_rate,
            latency_ms=args.latency_ms,
        )
    retry = RetryPolicy(seed=args.seed) if args.fault_rate > 0 else None
    engine = InvocationEngine(
        EngineConfig(
            parallelism=args.parallelism,
            cache_size=args.cache_size if args.cache_size > 0 else None,
            retry=retry,
            fault_plan=fault_plan,
            conformance=(
                ConformancePolicy(probe_rate=args.probe_rate, probe_seed=args.seed)
                if not args.no_conformance
                else None
            ),
            watchdog=(
                WatchdogPolicy(budget=args.watchdog_budget)
                if args.watchdog_budget is not None
                else None
            ),
            tracing=tracing,
        )
    )
    generator = ExampleGenerator(ctx, pool, engine=engine)
    reports = None
    for _pass in range(args.repeat):
        reports = generator.generate_many(catalog)
    return engine, reports


def cmd_engine_stats(args: argparse.Namespace) -> int:
    """Run generation through a tuned engine and print its telemetry."""
    try:
        engine, reports = _tuned_generation(args)
    except _UnknownModuleError as error:
        print(error, file=sys.stderr)
        return 2
    n_examples = sum(r.n_examples for r in reports.values())
    if args.json:
        print(
            json.dumps(
                {
                    "modules": len(reports),
                    "passes": args.repeat,
                    "examples_per_pass": n_examples,
                    "stats": engine.stats(),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(
        f"{len(reports)} modules x {args.repeat} pass(es): "
        f"{n_examples} data examples per pass"
    )
    print()
    print(engine.render_stats())
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Export the engine's telemetry for scraping (Prometheus / JSON)."""
    from repro.obs import MetricsExporter, MetricsServer

    if args.fleet:
        if not args.db:
            print(
                "error: --fleet needs --db — the fold reads the fleet's "
                "journal / state-store file",
                file=sys.stderr,
            )
            return 2
        from repro.obs.aggregate import MetricsAggregator

        exporter = MetricsAggregator(db=args.db, campaign_id=args.campaign)
    else:
        try:
            engine, _reports = _tuned_generation(args)
        except _UnknownModuleError as error:
            print(error, file=sys.stderr)
            return 2
        exporter = MetricsExporter(engine)
    if args.serve:
        with MetricsServer(exporter, port=args.port) as server:
            print(
                f"serving http://{server.host}:{server.port}/metrics "
                f"(and /metrics.json)",
                file=sys.stderr,
            )
            try:
                if args.serve_for is not None:
                    import time as _time

                    _time.sleep(args.serve_for)
                else:  # pragma: no cover - interactive
                    import threading

                    threading.Event().wait()
            except KeyboardInterrupt:  # pragma: no cover - interactive
                pass
        return 0
    if args.json:
        print(exporter.to_json())
    else:
        print(exporter.to_prometheus(), end="")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the annotation-as-a-service HTTP server (or a replica fleet)."""
    from repro.obs.metrics import ServeError
    from repro.serve import AnnotationService, AnnotationServer, ServeConfig

    if args.replicas > 1:
        return _serve_fleet(args)
    service = AnnotationService(
        seed=args.seed,
        memoize=not args.no_memoize,
        watchdog_budget=args.watchdog_budget,
        latency_ms=args.latency_ms,
        fault_rate=args.fault_rate,
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        queue_timeout=args.queue_timeout,
        rate=args.rate if args.rate > 0 else None,
        burst=args.burst,
        default_deadline_s=(
            args.default_deadline_ms / 1000.0
            if args.default_deadline_ms is not None
            else None
        ),
        db=args.db,
        sample_interval=args.sample,
        log_stream=sys.stderr if args.access_log else None,
    )
    if args.register_all:
        for module in service.catalog:
            service.register(module.module_id)
    try:
        server = AnnotationServer(service, config)
    except ServeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    with server:
        print(
            f"serving annotations on http://{server.host}:{server.port} "
            f"(inflight {config.max_inflight}, queue {config.max_queue}, "
            f"rate {config.rate if config.rate else 'unlimited'}/s per tenant)",
            file=sys.stderr,
        )
        try:
            if args.serve_for is not None:
                import time as _time

                _time.sleep(args.serve_for)
            else:  # pragma: no cover - interactive
                import threading

                threading.Event().wait()
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
    return 0


def _serve_fleet(args: argparse.Namespace) -> int:
    """Run the supervised SO_REUSEPORT replica fleet (serve --replicas N)."""
    import signal
    import threading

    from repro.serve import FleetConfig, ServeConfig, ServeSupervisor

    if args.db is None:
        print(
            "error: --replicas > 1 needs --db — replicas share "
            "registrations, memoized reports and tenant budgets through it",
            file=sys.stderr,
        )
        return 2
    if args.access_log:
        print(
            "error: --access-log is unavailable in fleet mode "
            "(a stream cannot cross the spawn boundary)",
            file=sys.stderr,
        )
        return 2
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        queue_timeout=args.queue_timeout,
        rate=args.rate if args.rate > 0 else None,
        burst=args.burst,
        default_deadline_s=(
            args.default_deadline_ms / 1000.0
            if args.default_deadline_ms is not None
            else None
        ),
        db=args.db,
        sample_interval=args.sample,
    )
    service = {
        "seed": args.seed,
        "memoize": not args.no_memoize,
        "watchdog_budget": args.watchdog_budget,
        "latency_ms": args.latency_ms,
        "fault_rate": args.fault_rate,
    }
    try:
        fleet = FleetConfig(
            replicas=args.replicas,
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_timeout=args.heartbeat_timeout,
            max_restarts=args.max_restarts,
            restart_backoff=args.restart_backoff,
            drain_timeout=args.drain_timeout,
            chaos_kill_replica=args.chaos_kill_replica,
            metrics_port=args.metrics_port,
        )
        supervisor = ServeSupervisor(
            config, fleet, service=service, register_all=args.register_all
        )
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    stop = threading.Event()
    rolling = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    if hasattr(signal, "SIGHUP"):  # rolling restart on SIGHUP
        signal.signal(signal.SIGHUP, lambda *_: rolling.set())
    if args.serve_for is not None:
        timer = threading.Timer(args.serve_for, stop.set)
        timer.daemon = True
        timer.start()
    print(
        f"serving annotations on http://{supervisor.host}:{supervisor.port} "
        f"({fleet.replicas} replicas, inflight {config.max_inflight} each, "
        f"queue {config.max_queue}, "
        f"rate {config.rate if config.rate else 'unlimited'}/s per tenant)",
        file=sys.stderr,
    )
    try:
        graceful = supervisor.run(stop, rolling)
    finally:
        supervisor.close()
    return 0 if graceful else 1


def _print_event_timeline(events: "list[dict]", empty: str, who) -> None:
    """Print a supervisor's lifecycle events as ``+offset`` lines from
    the first; ``who(event)`` renders the padded process column."""
    if not events:
        print(f"\n{empty}")
        return
    print(f"\nEVENTS ({len(events)}):")
    t0 = events[0]["t_wall"]
    for event in events:
        detail = f"  {event['detail']}" if event["detail"] else ""
        print(
            f"  +{event['t_wall'] - t0:7.2f}s  {who(event)} "
            f"{event['kind']}{detail}"
        )


def cmd_serve_fleet(args: argparse.Namespace) -> int:
    """Replica fleet status + lifecycle event timeline of a serving
    fleet, reconstructed from the shared state store alone — works while
    the supervisor is alive and post-mortem."""
    import time as _time

    from repro.processlog import FLEET_SCOPE, REPLICA, has_status
    from repro.serve import ServeStateStore
    from repro.serve.fleet import FLEET
    from repro.serve.sampling import HTTP_CAMPAIGN_ID

    if not has_status(args.db, REPLICA, FLEET_SCOPE):
        print(
            f"error: no serving-fleet state in {args.db} "
            "(run `repro-cli serve --replicas N --db ...` first)",
            file=sys.stderr,
        )
        return 2
    store = ServeStateStore(args.db)
    try:
        rows = store.replica_rows(
            now=_time.time(), heartbeat_timeout=args.heartbeat_timeout
        )
        events = store.events()
        tenants = store.tenant_snapshot()
        reports = store.journal.progress_counts(HTTP_CAMPAIGN_ID)["n_done"]
        planned = {m.campaign_id: m.module_ids for m in store.journal.campaigns()}
        modules = len(planned.get(HTTP_CAMPAIGN_ID, ()))
    finally:
        store.close()
    if args.prometheus:
        from repro.obs import render_prometheus

        print(render_prometheus({"replicas": rows}), end="")
        return 0
    if args.json:
        print(
            json.dumps(
                {
                    "replicas": rows,
                    "events": events,
                    "tenants": tenants,
                    "reports": reports,
                    "modules": modules,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(
        f"{'REPLICA':<9}{'PID':<8}{'PHASE':<15}{'ATT':<5}{'REQS':<8}"
        f"{'RESTARTS':<10}{'HB AGE':<8}"
    )
    for row in rows:
        print(
            f"{row['replica']:<9}{row['pid']:<8}{row['phase']:<15}"
            f"{row['attempt']:<5}{row['requests_total']:<8}"
            f"{row['restarts']:<10}{row['heartbeat_age']:<8.1f}"
        )
    print(
        f"\nshared state: {modules} modules, {reports} memoized reports, "
        f"{len(tenants)} tenants"
    )
    _print_event_timeline(
        events,
        "no fleet events journaled yet",
        lambda event: (
            "fleet" if event["replica"] == FLEET
            else f"replica {event['replica']}"
        ).ljust(11),
    )
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive concurrent load against a running annotation server."""
    from repro.serve import LoadProfile, run_loadgen

    mix: "dict[str, float]" = {}
    for part in args.mix.split(","):
        name, _, weight = part.partition("=")
        try:
            mix[name.strip()] = float(weight)
        except ValueError:
            print(
                f"error: bad --mix entry {part!r} "
                "(expected name=weight,name=weight,...)",
                file=sys.stderr,
            )
            return 2
    module_ids = tuple(args.module)
    if not module_ids and args.modules > 0:
        _ctx, catalog, _pool = _world(args.seed)
        module_ids = tuple(m.module_id for m in catalog[: args.modules])
    try:
        profile = LoadProfile(
            clients=args.clients,
            requests_per_client=args.requests,
            mix=mix,
            module_ids=module_ids,
            tenants=args.tenants,
            deadline_ms=args.deadline_ms,
            seed=args.seed,
            timeout=args.timeout,
        )
        report = run_loadgen(args.host, args.port, profile)
    except (ValueError, OSError, RuntimeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 1 if report.n_5xx else 0


def _fleet_trace(args: argparse.Namespace) -> int:
    """Assemble one logical trace across every fleet process journaled
    in ``--db``: replica spans from the serve state store, supervisor
    and shard-worker spans from the campaign journal and its derived
    shard journals.  The positional id may be a trace id or a campaign
    id (a campaign's trace id is derived from its campaign id)."""
    from repro.campaign import CampaignJournal
    from repro.obs.aggregate import (
        collect_fleet_spans,
        render_fleet_trace,
        spans_for_trace,
        trace_ids,
    )
    from repro.obs.propagation import campaign_trace_id, normalize_trace_id

    if _no_journal(args.db):
        return 2
    journal = CampaignJournal(args.db)
    try:
        metas = journal.campaigns()
    finally:
        journal.close()
    spans = collect_fleet_spans(args.db, *[meta.campaign_id for meta in metas])
    known = trace_ids(spans)
    target = normalize_trace_id(args.campaign_id)
    if target not in known:
        # Not a known trace id: maybe it names a campaign.
        derived = campaign_trace_id(args.campaign_id)
        if derived in known:
            target = derived
    selected = spans_for_trace(target, spans)
    if not selected:
        print(
            f"error: no spans for trace {args.campaign_id!r} in {args.db}",
            file=sys.stderr,
        )
        if known:
            print("known trace ids:", file=sys.stderr)
            for trace in known[:20]:
                print(f"  {trace}", file=sys.stderr)
        return 2
    if args.json:
        print(
            json.dumps(
                [span.to_dict() for span in selected],
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(
        render_fleet_trace(
            target, spans, slowest=args.slowest, limit=args.limit
        )
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Reconstruct a campaign's span timeline from its journal."""
    from repro.campaign import CampaignJournal, UnknownCampaignError
    from repro.obs import load_spans, render_trace

    if args.fleet:
        return _fleet_trace(args)
    if _no_journal(args.db):
        return 2
    journal = CampaignJournal(args.db)
    try:
        try:
            journal.meta(args.campaign_id)
        except UnknownCampaignError:
            print(
                f"error: no campaign {args.campaign_id!r} in {args.db} "
                "(try `repro-cli campaign status`)",
                file=sys.stderr,
            )
            return 2
        spans = load_spans(journal, args.campaign_id, module_id=args.module)
    finally:
        journal.close()
    if args.json:
        print(
            json.dumps([span.to_dict() for span in spans], indent=2, sort_keys=True)
        )
        return 0
    print(
        render_trace(
            spans, args.campaign_id, slowest=args.slowest, limit=args.limit
        )
    )
    return 0


def _no_journal(path: str) -> bool:
    """Report a missing journal file; read-only commands never create
    one (exit 2)."""
    if os.path.exists(path):
        return False
    print(f"error: no journal {path}", file=sys.stderr)
    return True


def _open_campaign_journal(args: argparse.Namespace):
    """Open the journal and verify the campaign exists (exit 2 on miss)."""
    from repro.campaign import CampaignJournal, UnknownCampaignError

    if _no_journal(args.db):
        return None
    journal = CampaignJournal(args.db)
    try:
        journal.meta(args.campaign_id)
    except UnknownCampaignError:
        journal.close()
        print(
            f"error: no campaign {args.campaign_id!r} in {args.db} "
            "(try `repro-cli campaign status`)",
            file=sys.stderr,
        )
        return None
    return journal


def cmd_top(args: argparse.Namespace) -> int:
    """Live terminal dashboard over a campaign's journal."""
    from repro.obs import Dashboard

    journal = _open_campaign_journal(args)
    if journal is None:
        return 2
    try:
        dashboard = Dashboard(
            journal,
            args.campaign_id,
            interval=args.interval,
            # --no-color forces escape-free frames; otherwise the
            # dashboard auto-detects NO_COLOR / TERM=dumb.
            no_color=True if args.no_color else None,
        )
        if args.once:
            dashboard.render_once()
        else:  # pragma: no cover - interactive loop; --once covers rendering
            try:
                dashboard.run(iterations=args.iterations)
            except KeyboardInterrupt:
                pass
    finally:
        journal.close()
    return 0


def _journaled_profiles(args: argparse.Namespace, kind: str) -> "list[dict]":
    """Load the profile dicts the fleet journaled at drain / shard end.

    ``--serve`` reads the replicas' event timeline in the state store;
    ``--campaign`` reads the worker events of the main journal and of
    every shard journal beside it — the same discovery rule as span
    assembly.
    """
    from repro.campaign.sharding import campaign_journals
    from repro.processlog import FLEET_SCOPE, REPLICA, SHARD_WORKER, collect

    if args.serve:
        role, sources = REPLICA, [(args.db, FLEET_SCOPE)]
    else:
        role, sources = SHARD_WORKER, campaign_journals(args.db, args.campaign)
    events = collect(sources, lambda log, scope: log.events(role, scope))
    return [
        json.loads(event["detail"])
        for event in events
        if event["kind"] == kind and event["detail"]
    ]


def cmd_profile(args: argparse.Namespace) -> int:
    """Sampling profiler: live over the simulator workload, or the
    merged fleet profile reconstructed from journaled per-process
    profiles (arm a fleet with ``REPRO_PROFILE_HZ``)."""
    from repro.obs.profiler import (
        PROFILE_EVENT_KIND,
        SamplingProfiler,
        merge_profiles,
        render_collapsed,
        render_flamegraph,
        render_top,
    )

    if args.campaign and args.serve:
        print(
            "error: --campaign and --serve are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if args.campaign or args.serve:
        if not args.db:
            print(
                "error: journaled profiles need --db",
                file=sys.stderr,
            )
            return 2
        if _no_journal(args.db):
            return 2
        profiles = _journaled_profiles(args, PROFILE_EVENT_KIND)
        if not profiles:
            where = (
                f"campaign {args.campaign!r}" if args.campaign else "fleet"
            )
            print(
                f"error: no journaled profiles for {where} in {args.db} "
                "(run the fleet with REPRO_PROFILE_HZ=50 to arm the "
                "profiler)",
                file=sys.stderr,
            )
            return 2
        profile = merge_profiles(profiles)
    else:
        profiler = SamplingProfiler(hz=args.hz)
        with profiler:
            try:
                _tuned_generation(args)
            except _UnknownModuleError as error:
                print(error, file=sys.stderr)
                return 2
        profile = profiler.to_dict()
    if args.json:
        print(json.dumps(profile, indent=2, sort_keys=True))
        return 0
    if args.flame:
        print(render_flamegraph(profile, min_percent=args.min_percent))
        return 0
    if args.collapsed:
        print(render_collapsed(profile))
        return 0
    print(render_top(profile, limit=args.top))
    return 0


def cmd_alerts(args: argparse.Namespace) -> int:
    """Journaled alert history: current states, firing set, or gauges."""
    from repro.obs import render_alerts, render_prometheus
    from repro.obs.slo import alert_states

    journal = _open_campaign_journal(args)
    if journal is None:
        return 2
    try:
        events = journal.alerts(args.campaign_id)
    finally:
        journal.close()
    if args.prometheus:
        states = alert_states(events)
        n_firing = sum(
            1 for state in states.values() if state["state"] == "firing"
        )
        section = {
            "alerts": [states[key] for key in sorted(states)],
            "burn_rates": [],
            "n_firing": n_firing,
        }
        print(render_prometheus({"slo": section}), end="")
        return 0
    if args.json:
        print(json.dumps(events, indent=2, sort_keys=True))
        return 0
    print(render_alerts(events, firing_only=args.firing))
    return 0


# ----------------------------------------------------------------------
# Campaigns
# ----------------------------------------------------------------------
def cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import (
        CampaignConfig,
        CampaignJournal,
        CampaignRunner,
        CampaignSupervisor,
        render_campaign_report,
    )

    config = CampaignConfig(
        seed=args.seed,
        parallelism=args.parallelism,
        cache_size=args.cache_size if args.cache_size > 0 else None,
        fault_rate=args.fault_rate,
        latency_ms=args.latency_ms,
        blackout_providers=tuple(args.blackout),
        blackout_calls=args.blackout_calls,
        permanent_blackouts=tuple(args.permanent_blackout),
        failure_threshold=args.failure_threshold,
        probe_interval=args.probe_interval,
        deadline=args.deadline,
        limit=args.limit,
        watchdog_budget=args.watchdog_budget,
        conformance=not args.no_conformance,
        probe_rate=args.probe_rate,
        hang_providers=tuple(args.hang),
        stall_providers=tuple(args.stall),
        stall_ms=args.stall_ms,
        corrupt_providers=tuple(args.corrupt_output),
        nondeterministic_providers=tuple(args.nondeterministic),
        trace=args.trace,
        sample_interval=args.sample,
        baseline=args.baseline,
        workers=args.workers,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_timeout=args.heartbeat_timeout,
        max_restarts=args.max_restarts,
        restart_backoff=args.restart_backoff,
        chaos_kill_at=args.chaos_kill_at,
        chaos_kill_rate=args.chaos_kill_rate,
        chaos_stall_after=args.chaos_stall_after,
    )
    if config.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    if config.workers > 1:
        _ctx, catalog, _pool = _world(args.seed)
        supervisor = CampaignSupervisor(
            args.db, [m.module_id for m in catalog], config
        )
        try:
            result = supervisor.run(args.campaign_id)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(render_campaign_report(result))
        return 0
    ctx, catalog, pool = _world(args.seed)
    journal = CampaignJournal(args.db)
    try:
        runner = CampaignRunner(ctx, catalog, pool, journal, config)
        try:
            result = runner.run(args.campaign_id)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(render_campaign_report(result))
    finally:
        journal.close()
    return 0


def cmd_campaign_resume(args: argparse.Namespace) -> int:
    from repro.campaign import (
        CampaignConfig,
        CampaignJournal,
        CampaignRunner,
        CampaignSupervisor,
        UnknownCampaignError,
        render_campaign_report,
    )

    journal = CampaignJournal(args.db)
    try:
        try:
            meta = journal.meta(args.campaign_id)
        except UnknownCampaignError:
            print(
                f"error: no campaign {args.campaign_id!r} in {args.db} "
                "(try `repro-cli campaign status`)",
                file=sys.stderr,
            )
            return 2
        if meta.config.get("kind") == "http-server":
            print(
                f"error: {args.campaign_id!r} is a server's report store, "
                "not a generation campaign; it cannot be resumed",
                file=sys.stderr,
            )
            return 2
        config = CampaignConfig.from_dict(meta.config)
        if config.workers > 1:
            journal.close()
            journal = None
            supervisor = CampaignSupervisor(
                args.db, list(meta.module_ids), config
            )
            result = supervisor.resume(args.campaign_id)
            print(render_campaign_report(result))
            return 0
        ctx, catalog, pool = _world(meta.seed)
        runner = CampaignRunner(ctx, catalog, pool, journal, config)
        result = runner.resume(args.campaign_id)
        print(render_campaign_report(result))
    finally:
        if journal is not None:
            journal.close()
    return 0


def cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign import (
        CampaignJournal,
        UnknownCampaignError,
        campaign_progress,
    )

    if _no_journal(args.db):
        return 2
    journal = CampaignJournal(args.db)
    try:
        if args.campaign_id is not None:
            try:
                metas = [journal.meta(args.campaign_id)]
            except UnknownCampaignError:
                print(
                    f"error: no campaign {args.campaign_id!r} in {args.db}",
                    file=sys.stderr,
                )
                return 2
        else:
            metas = journal.campaigns()
        progress = [campaign_progress(journal, meta) for meta in metas]
    finally:
        journal.close()
    if args.json:
        payload = progress[0] if args.campaign_id is not None else progress
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not progress:
        print(f"no campaigns in {args.db}")
        return 0
    for entry in progress:
        line = (
            f"{entry['campaign_id']:<20} {entry['status']:<9} "
            f"done {entry['n_done']}/{entry['n_planned']}  "
            f"skipped {entry['n_skipped']}  pending {entry['n_pending']}  "
            f"examples {entry['n_examples']}"
        )
        if entry["timed_out_combinations"] or entry["quarantined_combinations"]:
            line += (
                f"  timed_out {entry['timed_out_combinations']}  "
                f"quarantined {entry['quarantined_combinations']}"
            )
        if not entry["n_done"] and not entry["n_skipped"]:
            line += "  (no results journaled yet)"
        print(line)
        for module_id, reason in entry["skipped"].items():
            print(f"    skipped {module_id:<30} {reason}")
    return 0


def cmd_campaign_workers(args: argparse.Namespace) -> int:
    """Per-shard worker fleet of a sharded campaign, plus its lifecycle
    event timeline — reconstructed from the journals alone, so it works
    while the supervisor is alive and post-mortem."""
    from repro.campaign import (
        CampaignJournal,
        UnknownCampaignError,
        merged_worker_stats,
        worker_rows,
    )

    if _no_journal(args.db):
        return 2
    journal = CampaignJournal(args.db)
    try:
        try:
            meta = journal.meta(args.campaign_id)
        except UnknownCampaignError:
            print(
                f"error: no campaign {args.campaign_id!r} in {args.db} "
                "(try `repro-cli campaign status`)",
                file=sys.stderr,
            )
            return 2
        events = journal.worker_events(args.campaign_id)
    finally:
        journal.close()
    rows = worker_rows(args.db, args.campaign_id, meta=meta, events=events)
    if not rows:
        print(
            f"error: campaign {args.campaign_id!r} was not sharded "
            "(ran with workers=1)",
            file=sys.stderr,
        )
        return 2
    if args.prometheus:
        from repro.obs import render_prometheus

        print(render_prometheus({"workers": rows}), end="")
        return 0
    if args.json:
        print(
            json.dumps(
                {
                    "workers": [
                        {k: v for k, v in row.items() if k != "stats"}
                        for row in rows
                    ],
                    "events": events,
                    "merged_stats": merged_worker_stats(rows),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(
        f"{'SHARD':<6}{'WORKER':<8}{'PID':<8}{'PHASE':<10}{'ATT':<5}"
        f"{'DONE':<12}{'INVOC':<7}{'RESTARTS':<10}{'HB AGE':<8}"
    )
    for row in rows:
        done = f"{row['n_done']}/{row['n_planned']}"
        if row["n_skipped"]:
            done += f"+{row['n_skipped']}s"
        heartbeat_age = (
            f"{row['heartbeat_age']:.1f}s"
            if row["heartbeat_age"] is not None
            else "-"
        )
        print(
            f"{row['shard']:<6}{row['worker']:<8}{row['pid'] or '-':<8}"
            f"{row['phase']:<10}{row['attempt']:<5}{done:<12}"
            f"{row['invocations']:<7}{row['restarts']:<10}{heartbeat_age:<8}"
        )
    _print_event_timeline(
        events,
        "no worker events journaled yet",
        lambda event: f"worker {event['worker']:<3} shard {event['shard']:<3}",
    )
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description="Data-example annotation of scientific modules "
        "(Belhajjame, EDBT 2014 reproduction)",
    )
    parser.add_argument("--seed", type=int, default=2014, help="master seed")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("list", help="browse the module catalog")
    p.add_argument("--category", help="substring filter on the category")
    p.add_argument("--interface", help="substring filter on the interface")
    p.set_defaults(func=cmd_list)

    p = commands.add_parser("show", help="signature and partitions of a module")
    p.add_argument("module_id")
    p.set_defaults(func=cmd_show)

    p = commands.add_parser("annotate", help="generate data examples")
    p.add_argument("module_id")
    p.add_argument("--max", type=int, default=5, help="examples to print")
    p.set_defaults(func=cmd_annotate)

    p = commands.add_parser(
        "match",
        help="repository-scale §6 matching: signature index, candidate "
             "queries, indexed repair",
    )
    match_commands = p.add_subparsers(dest="match_command", required=True)

    m = match_commands.add_parser(
        "candidates", help="match one decayed module (§6)"
    )
    m.add_argument("module_id")
    m.add_argument("--db", default=None,
                   help="journaled signature index to prune candidates with "
                        "(build it with `match index --db FILE`)")
    m.add_argument("--campaign", default="match-index",
                   help="index-build campaign id inside --db")
    m.add_argument("--exhaustive", action="store_true",
                   help="ignore any index and compare against the whole "
                        "catalog")
    m.set_defaults(func=cmd_match_candidates)

    m = match_commands.add_parser(
        "index",
        help="build (or resume) a journaled signature index over a catalog",
    )
    m.add_argument("--db", default=None,
                   help="campaign journal file (omit for an in-memory build)")
    m.add_argument("--campaign", default="match-index",
                   help="campaign id for the build journal")
    m.add_argument("--synthetic", type=int, default=0, metavar="N",
                   help="index an N-module synthetic catalog instead of the "
                        "paper catalog")
    m.add_argument("--limit", type=int, default=None,
                   help="only index the first N paper-catalog modules")
    m.add_argument("--width", type=int, default=64,
                   help="minhash signature rows")
    m.add_argument("--bands", type=int, default=16,
                   help="LSH bands (must divide --width)")
    m.add_argument("--json", action="store_true",
                   help="print the build report as JSON")
    m.set_defaults(func=cmd_match_index)

    m = match_commands.add_parser(
        "repair",
        help="detect decay, match replacements through the index, patch "
             "workflows",
    )
    m.add_argument("--synthetic", type=int, default=0, metavar="N",
                   help="run over an N-module synthetic world instead of "
                        "the paper repository")
    m.add_argument("--decay-fraction", type=float, default=0.15,
                   help="fraction of the synthetic catalog the decay event "
                        "takes down")
    m.add_argument("--json", action="store_true",
                   help="print the plan summary as JSON too")
    m.set_defaults(func=cmd_match_repair)

    p = commands.add_parser("suggest", help="composition suggestions (§8)")
    p.add_argument("module_id")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=cmd_suggest)

    p = commands.add_parser("redundancy", help="estimate redundancy (§8)")
    p.add_argument("module_id")
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_redundancy)

    p = commands.add_parser("describe", help="guess a module's task from examples (§5)")
    p.add_argument("module_id")
    p.set_defaults(func=cmd_describe)

    p = commands.add_parser("validate", help="statically check a workflow file")
    p.add_argument("workflow_file")
    p.add_argument("--include-decayed", action="store_true",
                   help="resolve decayed module ids too (pre-decay check)")
    p.set_defaults(func=cmd_validate)

    p = commands.add_parser("report", help="full reproduction report")
    p.set_defaults(func=cmd_report)

    def add_engine_args(p: argparse.ArgumentParser) -> None:
        """Tuned-engine knobs shared by ``engine-stats`` and ``metrics``."""
        p.add_argument("--parallelism", type=int, default=1,
                       help="scheduler worker threads")
        p.add_argument("--cache-size", type=int, default=4096,
                       help="invocation cache capacity (0 disables)")
        p.add_argument("--repeat", type=int, default=2,
                       help="generation passes over the catalog "
                            "(>=2 shows cache hits)")
        p.add_argument("--fault-rate", type=float, default=0.0,
                       help="injected transient failure probability")
        p.add_argument("--latency-ms", type=float, default=0.0,
                       help="injected mean latency per call, in ms")
        p.add_argument("--limit", type=int, default=None,
                       help="only process the first N catalog modules")
        p.add_argument("--module", action="append", default=[],
                       help="only process this module id (repeatable); unknown "
                            "ids exit nonzero")
        p.add_argument("--watchdog-budget", type=float, default=None,
                       help="hard wall-clock budget per invocation, seconds")
        p.add_argument("--probe-rate", type=float, default=0.0,
                       help="fraction of successful combinations to "
                            "double-invoke for nondeterminism")
        p.add_argument("--no-conformance", action="store_true",
                       help="disable output-conformance validation")

    p = commands.add_parser(
        "engine-stats",
        help="run generation through the invocation engine and print telemetry",
    )
    add_engine_args(p)
    p.add_argument("--json", action="store_true",
                   help="print the full stats snapshot as JSON")
    p.set_defaults(func=cmd_engine_stats)

    p = commands.add_parser(
        "metrics",
        help="export engine telemetry (Prometheus text format / JSON)",
    )
    add_engine_args(p)
    p.add_argument("--prometheus", action="store_true",
                   help="Prometheus text exposition format (the default)")
    p.add_argument("--json", action="store_true",
                   help="full stats snapshot as JSON instead")
    p.add_argument("--serve", action="store_true",
                   help="serve /metrics over HTTP instead of printing")
    p.add_argument("--port", type=int, default=9464,
                   help="scrape-endpoint port (0 picks a free one)")
    p.add_argument("--serve-for", type=float, default=None,
                   help="serve for N seconds, then exit (default: forever)")
    p.add_argument("--fleet", action="store_true",
                   help="fold fleet-level metrics from journals (--db) "
                        "instead of running a local workload")
    p.add_argument("--db", default=None,
                   help="fleet journal / state-store file (--fleet)")
    p.add_argument("--campaign", default=None, metavar="ID",
                   help="also fold this sharded campaign's worker "
                        "heartbeat stats (--fleet)")
    p.set_defaults(func=cmd_metrics)

    p = commands.add_parser(
        "serve",
        help="run the annotation-as-a-service HTTP server",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8014,
                   help="listen port (0 picks a free one)")
    p.add_argument("--max-inflight", type=int, default=8,
                   help="requests allowed to execute concurrently")
    p.add_argument("--max-queue", type=int, default=32,
                   help="requests allowed to wait for an execution slot")
    p.add_argument("--queue-timeout", type=float, default=1.0,
                   help="longest a queued request waits, seconds")
    p.add_argument("--rate", type=float, default=50.0,
                   help="per-tenant sustained requests/second (0 disables "
                        "rate limiting)")
    p.add_argument("--burst", type=float, default=100.0,
                   help="per-tenant burst allowance")
    p.add_argument("--default-deadline-ms", type=float, default=None,
                   help="deadline applied when the client sends no "
                        "X-Deadline-Ms header")
    p.add_argument("--db", default=None,
                   help="campaign journal file: enables /v1/campaigns/* and "
                        "journals HTTP samples for `repro-cli top`/`alerts`")
    p.add_argument("--sample", type=float, default=0.0, metavar="SECONDS",
                   help="journal an HTTP sample + SLO evaluation every N "
                        "seconds")
    p.add_argument("--no-memoize", action="store_true",
                   help="regenerate examples on every request (load testing)")
    p.add_argument("--watchdog-budget", type=float, default=5.0,
                   help="hard wall-clock budget per invocation, seconds")
    p.add_argument("--latency-ms", type=float, default=0.0,
                   help="injected mean provider latency per call, ms")
    p.add_argument("--fault-rate", type=float, default=0.0,
                   help="injected transient provider failure probability")
    p.add_argument("--register-all", action="store_true",
                   help="pre-register the whole catalog at startup")
    p.add_argument("--access-log", action="store_true",
                   help="write JSON access-log lines to stderr")
    p.add_argument("--serve-for", type=float, default=None,
                   help="serve for N seconds, then exit (default: forever)")
    p.add_argument("--replicas", type=int, default=1,
                   help="replica processes behind one SO_REUSEPORT port "
                        "(>1 runs the supervised fleet; needs --db)")
    p.add_argument("--heartbeat-interval", type=float, default=0.5,
                   help="seconds between replica heartbeats (fleet mode)")
    p.add_argument("--heartbeat-timeout", type=float, default=10.0,
                   help="heartbeat age past which a replica is killed and "
                        "respawned")
    p.add_argument("--max-restarts", type=int, default=3,
                   help="restart budget per replica before it is degraded")
    p.add_argument("--restart-backoff", type=float, default=0.1,
                   help="base seconds of the exponential restart backoff")
    p.add_argument("--drain-timeout", type=float, default=5.0,
                   help="seconds a draining replica gets to finish its "
                        "in-flight requests")
    p.add_argument("--chaos-kill-replica", type=int, default=0, metavar="K",
                   help="fault injection: each replica's first process dies "
                        "mid-request at its Kth request (0 disables)")
    p.add_argument("--metrics-port", type=int, default=None,
                   help="bind the supervisor's fleet-level /metrics "
                        "endpoint here (fleet mode; 0 picks a free port)")
    p.set_defaults(func=cmd_serve)
    serve_commands = p.add_subparsers(
        dest="serve_command", metavar="{fleet}", required=False
    )
    f = serve_commands.add_parser(
        "fleet",
        help="replica fleet + lifecycle timeline from the shared state "
             "store (post-mortem safe)",
    )
    f.add_argument("--db", required=True,
                   help="the fleet's shared state store (serve --db FILE)")
    f.add_argument("--heartbeat-timeout", type=float, default=10.0,
                   help="heartbeat age past which a replica counts as down")
    f.add_argument("--json", action="store_true",
                   help="machine-readable fleet snapshot")
    f.add_argument("--prometheus", action="store_true",
                   help="repro_serve_replica_* series in exposition format")
    f.set_defaults(func=cmd_serve_fleet)

    p = commands.add_parser(
        "loadgen",
        help="drive concurrent load against a running annotation server",
    )
    p.add_argument("--host", default="127.0.0.1", help="server address")
    p.add_argument("--port", type=int, required=True, help="server port")
    p.add_argument("--clients", type=int, default=100,
                   help="concurrent simulated clients")
    p.add_argument("--requests", type=int, default=10,
                   help="requests each client issues")
    p.add_argument("--mix", default="generate=0.6,match=0.2,modules=0.2",
                   help="weighted endpoint mix "
                        "(generate/match/modules/healthz)")
    p.add_argument("--module", action="append", default=[],
                   help="module id work requests draw from (repeatable)")
    p.add_argument("--modules", type=int, default=4,
                   help="use the first N catalog modules when no --module "
                        "is given")
    p.add_argument("--tenants", type=int, default=1,
                   help="distinct X-Api-Key values, round-robin over clients")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="X-Deadline-Ms header per request")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="socket timeout per request, seconds")
    p.add_argument("--json", action="store_true",
                   help="print the load report as JSON")
    p.set_defaults(func=cmd_loadgen)

    p = commands.add_parser(
        "trace",
        help="reconstruct a campaign's span timeline from its journal",
    )
    p.add_argument("campaign_id")
    p.add_argument("--db", required=True, help="journal SQLite file")
    p.add_argument("--module", default=None,
                   help="only this module's invocations")
    p.add_argument("--slowest", type=int, default=None,
                   help="show only the N slowest invocations' span trees")
    p.add_argument("--limit", type=int, default=None,
                   help="show only the first N span trees (timeline order)")
    p.add_argument("--json", action="store_true",
                   help="print the raw span trees as JSON")
    p.add_argument("--fleet", action="store_true",
                   help="assemble one cross-process trace: the id selects "
                        "by propagated trace id (or names a campaign); "
                        "spans come from the serve state store and every "
                        "campaign + shard journal in --db")
    p.set_defaults(func=cmd_trace)

    p = commands.add_parser(
        "profile",
        help="sampling profiler: live workload or journaled fleet profiles",
    )
    add_engine_args(p)
    p.add_argument("--hz", type=float, default=50.0,
                   help="sampling rate for the live workload profile")
    p.add_argument("--campaign", default=None, metavar="ID",
                   help="merge the journaled per-worker profiles of this "
                        "sharded campaign instead of profiling live")
    p.add_argument("--serve", action="store_true",
                   help="merge the journaled per-replica profiles of a "
                        "serving fleet instead of profiling live")
    p.add_argument("--db", default=None,
                   help="journal / state-store file the fleet profiled "
                        "into (--campaign / --serve)")
    p.add_argument("--top", type=int, default=20, metavar="N",
                   help="rows in the hottest-frames table (the default "
                        "view)")
    p.add_argument("--flame", action="store_true",
                   help="indented text flame graph instead of the table")
    p.add_argument("--min-percent", type=float, default=1.0,
                   help="prune flame-graph subtrees below this percent")
    p.add_argument("--collapsed", action="store_true",
                   help="FlameGraph collapsed-stack lines (pipe to "
                        "external tooling)")
    p.add_argument("--json", action="store_true",
                   help="print the raw profile dict as JSON")
    p.set_defaults(func=cmd_profile)

    p = commands.add_parser(
        "top",
        help="live terminal dashboard over a campaign's journal",
    )
    p.add_argument("campaign_id")
    p.add_argument("--db", required=True, help="journal SQLite file")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between journal polls")
    p.add_argument("--once", action="store_true",
                   help="render one frame and exit (CI / scripting)")
    p.add_argument("--iterations", type=int, default=None,
                   help="stop the live loop after N ticks")
    p.add_argument("--no-color", action="store_true",
                   help="no ANSI escapes: append frames instead of "
                        "redrawing in place (dumb terminals, log pipes; "
                        "also via NO_COLOR / TERM=dumb)")
    p.set_defaults(func=cmd_top)

    p = commands.add_parser(
        "alerts",
        help="journaled SLO / drift alert history of a campaign",
    )
    p.add_argument("campaign_id")
    p.add_argument("--db", required=True, help="journal SQLite file")
    p.add_argument("--firing", action="store_true",
                   help="only alerts currently firing")
    p.add_argument("--json", action="store_true",
                   help="print the raw event history as JSON")
    p.add_argument("--prometheus", action="store_true",
                   help="current alert states as Prometheus gauges")
    p.set_defaults(func=cmd_alerts)

    p = commands.add_parser(
        "campaign",
        help="crash-safe whole-catalog generation campaigns",
    )
    campaign_commands = p.add_subparsers(dest="campaign_command", required=True)

    c = campaign_commands.add_parser("run", help="start a journaled campaign")
    c.add_argument("campaign_id")
    c.add_argument("--db", required=True, help="journal SQLite file")
    c.add_argument("--limit", type=int, default=None,
                   help="only campaign the first N catalog modules")
    c.add_argument("--parallelism", type=int, default=1)
    c.add_argument("--cache-size", type=int, default=4096)
    c.add_argument("--fault-rate", type=float, default=0.0,
                   help="injected transient failure probability")
    c.add_argument("--latency-ms", type=float, default=0.0)
    c.add_argument("--blackout", action="append", default=[],
                   help="provider that starts blacked out (repeatable)")
    c.add_argument("--blackout-calls", type=int, default=3,
                   help="failing calls served per blackout before recovery")
    c.add_argument("--permanent-blackout", action="append", default=[],
                   help="provider that never recovers (repeatable)")
    c.add_argument("--failure-threshold", type=int, default=3,
                   help="consecutive failures tripping the breaker")
    c.add_argument("--probe-interval", type=float, default=0.1,
                   help="breaker probe / campaign re-probe interval, seconds")
    c.add_argument("--deadline", type=float, default=None,
                   help="wall-clock budget for unreachable modules, seconds")
    c.add_argument("--watchdog-budget", type=float, default=None,
                   help="hard wall-clock budget per invocation, seconds")
    c.add_argument("--probe-rate", type=float, default=0.0,
                   help="fraction of successful combinations to double-invoke "
                        "for nondeterminism")
    c.add_argument("--no-conformance", action="store_true",
                   help="disable output-conformance validation")
    c.add_argument("--hang", action="append", default=[],
                   help="provider whose calls hang (repeatable; testing)")
    c.add_argument("--stall", action="append", default=[],
                   help="provider whose calls stall --stall-ms (repeatable)")
    c.add_argument("--stall-ms", type=float, default=0.0,
                   help="fixed extra delay per stalled call, ms")
    c.add_argument("--corrupt-output", action="append", default=[],
                   help="provider whose outputs lose a parameter (repeatable)")
    c.add_argument("--nondeterministic", action="append", default=[],
                   help="provider whose outputs vary per call (repeatable)")
    c.add_argument("--trace", action="store_true",
                   help="journal one span tree per invocation "
                        "(inspect with `repro-cli trace`)")
    c.add_argument("--sample", type=float, default=0.0, metavar="SECONDS",
                   help="journal a longitudinal snapshot + SLO evaluation "
                        "every N seconds (watch with `repro-cli top`)")
    c.add_argument("--baseline", default="",
                   help="campaign id whose reports are the behavioral "
                        "baseline; drifted modules raise drift alerts")
    c.add_argument("--workers", type=int, default=1,
                   help="shard the catalog across N supervised worker "
                        "processes (1 = serial in-process run)")
    c.add_argument("--heartbeat-interval", type=float, default=0.5,
                   help="seconds between worker heartbeat commits")
    c.add_argument("--heartbeat-timeout", type=float, default=10.0,
                   help="heartbeat silence after which a worker is declared "
                        "wedged and killed")
    c.add_argument("--max-restarts", type=int, default=3,
                   help="restarts per shard before it is declared degraded")
    c.add_argument("--restart-backoff", type=float, default=0.1,
                   help="base of the exponential restart backoff, seconds")
    c.add_argument("--chaos-kill-at", type=int, default=0, metavar="K",
                   help="chaos: SIGKILL each first-attempt worker at its "
                        "K-th invocation (0 disables)")
    c.add_argument("--chaos-kill-rate", type=float, default=0.0, metavar="R",
                   help="chaos: per-invocation SIGKILL probability for "
                        "first-attempt workers (0 disables)")
    c.add_argument("--chaos-stall-after", type=int, default=0, metavar="K",
                   help="chaos: stall a first-attempt worker's heartbeat "
                        "after K invocations, leaving the process alive "
                        "(0 disables)")
    c.set_defaults(func=cmd_campaign_run)

    c = campaign_commands.add_parser(
        "resume", help="continue a killed or degraded campaign"
    )
    c.add_argument("campaign_id")
    c.add_argument("--db", required=True, help="journal SQLite file")
    c.set_defaults(func=cmd_campaign_resume)

    c = campaign_commands.add_parser("status", help="journal progress")
    c.add_argument("campaign_id", nargs="?", default=None)
    c.add_argument("--db", required=True, help="journal SQLite file")
    c.add_argument("--json", action="store_true",
                   help="print progress as JSON")
    c.set_defaults(func=cmd_campaign_status)

    c = campaign_commands.add_parser(
        "workers",
        help="worker fleet + lifecycle event timeline of a sharded campaign",
    )
    c.add_argument("campaign_id")
    c.add_argument("--db", required=True, help="journal SQLite file")
    c.add_argument("--json", action="store_true",
                   help="rows, events and merged stats as JSON")
    c.add_argument("--prometheus", action="store_true",
                   help="per-worker gauges in Prometheus text format")
    c.set_defaults(func=cmd_campaign_workers)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
