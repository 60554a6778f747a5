"""The serving fleet: N replica processes behind one SO_REUSEPORT port.

One :class:`~repro.serve.app.AnnotationServer` process caps out at its
GIL and dies with its host process.  The fleet runs the supervisor that
sharded campaigns run (:class:`~repro.supervision.ProcessSupervisor`)
over serving replicas:

* **One port, N processes.**  Every replica binds the same TCP port
  with ``SO_REUSEPORT``; the kernel balances incoming connections
  across the listening sockets, so clients need no proxy and a replica
  that vanishes simply stops receiving new connections.  The supervisor
  *reserves* the port first — a bound-but-not-listening parent socket
  held for the fleet's lifetime — so an ephemeral ``--port 0`` resolves
  once and every replica (including restarts) agrees on it.
* **Spawn, watch, restart.**  Replicas are ``spawn``-context processes
  (:func:`serve_replica_main`), journaling heartbeats into the shared
  :class:`~repro.serve.state.ServeStateStore`.  A replica that crashed
  or went heartbeat-mute is killed and respawned with exponential
  backoff, up to ``max_restarts`` times; every lifecycle event lands in
  the store's event timeline (:mod:`repro.processlog`) for the
  ``repro-cli serve fleet`` post-mortem.  Unlike a campaign shard, a replica has no
  natural end: any exit nobody asked for — even a clean 0 — is a crash.
* **Graceful drain.**  SIGTERM (or :meth:`ServeSupervisor.drain`)
  walks every replica through :meth:`AnnotationServer.drain`: stop
  accepting, answer everything in flight under the drain deadline,
  close keep-alive connections with ``Connection: close``.  A replica
  that cannot drain in time is killed — bounded shutdown beats a
  wedged one.
* **Rolling restarts.**  :meth:`ServeSupervisor.rolling_restart`
  recycles one replica at a time — drain, respawn, wait for the fresh
  heartbeat — so the fleet never serves with fewer than N-1 replicas
  and clients never see the port go dark.
* **Serve chaos.**  ``chaos_kill_replica=K`` arms each replica's
  *first* process with ``FaultPlan.kill_at_request=K``: the process
  dies mid-request at its Kth governed request (no response written,
  connection dropped), and the restarted process serves normally — the
  crash-mid-request recovery ``tools/serve_chaos.py`` proves under the
  1000-client loadgen.

Because registrations, memoized reports and tenant budgets live in the
shared store, a crashed replica costs exactly its in-flight requests:
its knowledge was never private.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable

from repro.serve.app import AnnotationServer, ServeConfig
from repro.serve.service import AnnotationService
from repro.processlog import FLEET_SCOPE, REPLICA
from repro.serve.sampling import HTTP_CAMPAIGN_ID, open_http_campaign
from repro.serve.state import ServeStateStore
from repro.supervision import Child, Heartbeat, ProcessSupervisor, current_beat

#: Replica index used for fleet-level (not per-replica) timeline events.
FLEET = -1

#: Grace past the drain deadline before a SIGTERM'd replica is killed.
DRAIN_GRACE = 2.0


@dataclass(frozen=True)
class FleetConfig:
    """Supervision knobs of one serving fleet.

    Attributes:
        replicas: Replica processes to keep serving.
        heartbeat_interval: Seconds between a replica's journaled
            heartbeats.
        heartbeat_timeout: Heartbeat age past which a replica is
            declared wedged and killed.
        max_restarts: Restart budget per replica; past it the replica
            is degraded (left down) instead of respawned.
        restart_backoff: Base of the exponential restart backoff,
            seconds (doubles per restart of the same replica).
        drain_timeout: Seconds a draining replica gets to finish its
            in-flight requests before being killed.
        chaos_kill_replica: Arm each replica's *first* process to die
            mid-request at its Kth governed request (0 disables).
            Never re-armed on restarts, so the fleet converges.
        metrics_port: Bind the supervisor's fleet-level ``/metrics``
            endpoint — the unified scrape folding every replica's
            journaled stats (:class:`repro.obs.aggregate.MetricsAggregator`)
            — on this port (0 picks an ephemeral one; ``None``
            disables the endpoint).
    """

    replicas: int = 2
    heartbeat_interval: float = 0.5
    heartbeat_timeout: float = 10.0
    max_restarts: int = 3
    restart_backoff: float = 0.1
    drain_timeout: float = 5.0
    chaos_kill_replica: int = 0
    metrics_port: "int | None" = None

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.restart_backoff < 0:
            raise ValueError("restart_backoff must be non-negative")
        if self.drain_timeout <= 0:
            raise ValueError("drain_timeout must be positive")
        if self.chaos_kill_replica < 0:
            raise ValueError("chaos_kill_replica must be non-negative")
        if self.metrics_port is not None and self.metrics_port < 0:
            raise ValueError("metrics_port must be non-negative (or None)")


def serve_replica_main(spec: dict) -> int:
    """Entry point of one spawned serving replica.

    Must stay a module-level importable function: the supervisor spawns
    replicas with the ``spawn`` start method, which pickles the entry
    point by qualified name.

    Args:
        spec: ``{"replica", "attempt", "serve_config" (ServeConfig
            dict; concrete port, ``reuse_port=True``), "service"
            (AnnotationService kwargs), "heartbeat_interval",
            "drain_timeout"}``.

    Returns:
        0 after a graceful drain; the process never returns from a
        chaos kill (``os._exit``) or a crash.
    """
    # Signal handlers only bind in the main thread, which then parks on
    # this event: SIGTERM/SIGINT request a graceful drain.  They are
    # installed before the slow start-up below, so a SIGTERM that arrives
    # while the replica is still starting drains it instead of killing it.
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())

    from repro.obs.profiler import PROFILE_EVENT_KIND, maybe_start_profiler

    replica = spec["replica"]
    attempt = spec["attempt"]
    config = ServeConfig(**spec["serve_config"])
    # The replica's one connection to --db: the server journals through
    # this store's journal, and the final rows below still use it.
    store = ServeStateStore(config.db)
    service = AnnotationService(state=store, **spec["service"])
    server = AnnotationServer(service, config)
    # Continuous profiling, armed fleet-wide by REPRO_PROFILE_HZ: the
    # collected profile is journaled at drain time so `repro-cli
    # profile --serve` reconstructs the fleet's time breakdown offline.
    profiler = maybe_start_profiler()

    started_wall = time.time()

    def beat(phase: str, final: bool = False) -> None:
        # The full stats snapshot rides every beat (last write wins,
        # like shard heartbeats): this is how per-replica telemetry
        # leaves the process, and what the supervisor's fleet /metrics
        # fold (MetricsAggregator) reads back — journals alone, no
        # shared memory, no live scrape of each replica.  The final row
        # keeps the last beat's snapshot.
        store.processes.record_status(
            REPLICA,
            FLEET_SCOPE,
            replica,
            pid=os.getpid(),
            attempt=attempt,
            phase=phase,
            work=server.metrics.snapshot()["requests_total"],
            started_wall=started_wall,
            stats=None if final else server.stats(),
        )

    heartbeat = Heartbeat(
        beat, spec["heartbeat_interval"], f"replica-{replica:02d}-heartbeat"
    )
    server.start()
    beat("running")
    heartbeat.start()
    stop.wait()
    store.record_event(replica, "drain", f"pid {os.getpid()} draining")
    heartbeat.stop()
    drained = server.drain(timeout=spec["drain_timeout"])
    try:
        beat("drained" if drained else "drain-timeout", final=True)
        store.record_event(
            replica,
            "drained" if drained else "drain-timeout",
            f"pid {os.getpid()}",
        )
        if profiler is not None:
            import json as _json

            store.record_event(
                replica,
                PROFILE_EVENT_KIND,
                _json.dumps(profiler.stop(), sort_keys=True),
            )
    finally:
        store.close()
    return 0


class ServeSupervisor:
    """Keeps ``fleet.replicas`` serving processes behind one port.

    Args:
        serve_config: The per-replica serving knobs.  ``db`` is
            required (the fleet's shared state, journal and post-mortem
            live there); ``port 0`` resolves to a reserved ephemeral port;
            ``log_stream`` must be ``None`` (it cannot cross a spawn
            boundary).
        fleet: The supervision knobs.
        service: Keyword arguments for each replica's
            :class:`AnnotationService` (seed, memoize, fault shaping,
            ...) — scalars only, they cross the spawn boundary.
        register_all: Register the entire catalog into the shared store
            up front, so every replica serves every module immediately.
        wall_clock / sleep: Injectable time sources for tests.

    Raises:
        ValueError: ``db`` missing or ``log_stream`` set.
    """

    def __init__(
        self,
        serve_config: ServeConfig,
        fleet: FleetConfig = FleetConfig(),
        service: "dict | None" = None,
        register_all: bool = False,
        wall_clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if serve_config.db is None:
            raise ValueError(
                "a serving fleet needs db — replicas share "
                "registrations, reports and tenant budgets through it"
            )
        if serve_config.log_stream is not None:
            raise ValueError(
                "log_stream cannot cross the spawn boundary; replicas "
                "keep their access logs in memory"
            )
        self.fleet = fleet
        self.service_kwargs = dict(service or {})
        self.register_all = register_all
        self._wall = wall_clock
        self._sleep = sleep
        self._mp = multiprocessing.get_context("spawn")
        # Reserve the port for the fleet's lifetime: a bound (but not
        # listening) SO_REUSEPORT socket pins it without receiving any
        # connections, so replicas — and their restarts — always bind
        # the same resolved port.
        self._reservation = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._reservation.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
        )
        self._reservation.bind((serve_config.host, serve_config.port))
        self.host, self.port = self._reservation.getsockname()[:2]
        self.serve_config = ServeConfig(
            **{
                **asdict(serve_config),
                "port": self.port,
                "reuse_port": True,
                "replica": None,
            }
        )
        self.store = ServeStateStore(serve_config.db)
        # Any unsupervised exit — crash, chaos kill, even a clean 0
        # nobody asked for — leaves the fleet a replica short; the
        # supervisor's job is to put it back.
        self._supervisor = ProcessSupervisor(
            fleet.replicas,
            fleet,
            start=self._start,
            last_beat=lambda child: current_beat(
                self.store.replica_status(child.index), child
            ),
            record=lambda child, kind, detail: self.store.record_event(
                child.index, kind, detail
            ),
            exit_zero_done=False,
            wall_clock=wall_clock,
        )
        self._children = self._supervisor.children
        self._started = False
        #: The unified scrape: one /metrics on the supervisor folding
        #: every replica's journaled stats (started with the fleet when
        #: ``fleet.metrics_port`` is set; read host/port off it).
        self.metrics_server = None

    # ------------------------------------------------------------------
    def start(self) -> "ServeSupervisor":
        """Spawn the whole fleet (idempotent)."""
        if self._started:
            return self
        self._started = True
        # Before any replica exists, with the seed the replicas' service
        # gets (AnnotationService's default 2014 unless given).
        open_http_campaign(self.store.journal, self.service_kwargs.get("seed", 2014))
        if self.register_all:
            from repro.modules.catalog import default_catalog

            for module in default_catalog():
                self.store.journal.add_module(HTTP_CAMPAIGN_ID, module.module_id)
        self.store.record_event(
            FLEET,
            "fleet-start",
            f"{self.fleet.replicas} replicas on {self.host}:{self.port}"
            + (
                f", chaos kill at request {self.fleet.chaos_kill_replica}"
                if self.fleet.chaos_kill_replica
                else ""
            ),
        )
        if self.fleet.metrics_port is not None:
            from repro.obs.aggregate import MetricsAggregator
            from repro.obs.metrics import MetricsServer

            aggregator = MetricsAggregator(state=self.store, wall_clock=self._wall)
            self.metrics_server = MetricsServer(
                aggregator, host=self.host, port=self.fleet.metrics_port
            ).start()
            self.store.record_event(
                FLEET,
                "metrics-start",
                f"fleet /metrics on {self.metrics_server.host}:"
                f"{self.metrics_server.port}",
            )
        for child in self._children:
            self._supervisor.spawn(child, "spawn")
        return self

    def _start(self, child: Child, kind: str):
        """Spawn the replica's current attempt and journal it."""
        # Chaos only on the replica's very first process: a restarted
        # replica must be allowed to serve, or a kill-at-request plan
        # would cycle forever.
        armed = (
            self.fleet.chaos_kill_replica > 0
            and child.attempt == 1
            and kind == "spawn"
        )
        service = dict(self.service_kwargs)
        if armed:
            service["kill_at_request"] = self.fleet.chaos_kill_replica
        serve_config = asdict(self.serve_config)
        serve_config["replica"] = child.index
        spec = {
            "replica": child.index,
            "attempt": child.attempt,
            "serve_config": serve_config,
            "service": service,
            "heartbeat_interval": self.fleet.heartbeat_interval,
            "drain_timeout": self.fleet.drain_timeout,
        }
        process = self._mp.Process(
            target=serve_replica_main,
            args=(spec,),
            name=f"repro-replica-{child.index:02d}",
        )
        process.start()
        self.store.record_event(
            child.index,
            kind,
            f"pid {process.pid} attempt {child.attempt}"
            + (", chaos armed" if armed else ""),
            t_wall=child.spawned_at,
        )
        return process

    # ------------------------------------------------------------------
    @property
    def pids(self) -> "dict[int, int]":
        """Live replica pids by replica index."""
        return {
            child.index: child.process.pid
            for child in self._children
            if child.process is not None and child.process.is_alive()
        }

    def healthy_replicas(self) -> int:
        """Replicas currently running with a fresh journaled heartbeat."""
        rows = self.store.replica_rows(
            now=self._wall(), heartbeat_timeout=self.fleet.heartbeat_timeout
        )
        live = {
            child.index: child.attempt
            for child in self._children
            if child.process is not None and child.process.is_alive()
        }
        return sum(
            1
            for row in rows
            if row["alive"] and live.get(row["replica"]) == row["attempt"]
        )

    def poll(self) -> None:
        """One supervision pass: reap exits, detect wedges, respawn."""
        self._supervisor.poll()

    # ------------------------------------------------------------------
    def rolling_restart(self, settle_timeout: float = 30.0) -> bool:
        """Recycle every replica, one at a time, zero downtime.

        Each replica in turn is drained (SIGTERM), reaped, respawned
        without chaos, and waited on until its fresh heartbeat lands —
        only then does the next replica go.  The fleet therefore never
        has fewer than ``replicas - 1`` listeners, and under
        ``SO_REUSEPORT`` the port keeps answering throughout.  Rolling
        recycles do not count against the crash-restart budget.

        Returns:
            True when every replica came back with a fresh heartbeat
            inside ``settle_timeout`` seconds.
        """
        self.store.record_event(FLEET, "rolling-restart", "begin")
        ok = True
        for child in self._children:
            if child.degraded:
                continue
            self._drain(
                [child], f"did not drain in {self.fleet.drain_timeout:g}s"
            )
            self._supervisor.spawn(child, "rolling-restart")
            if not self._await_running(child, settle_timeout):
                ok = False
        self.store.record_event(
            FLEET, "rolling-restart", "complete" if ok else "timed out"
        )
        return ok

    def _await_running(self, child: Child, timeout: float) -> bool:
        """Wait until the replica's current attempt has reported
        ``running``; False when it died first or ``timeout`` passed.

        A replica installs its SIGTERM handler early in
        :func:`serve_replica_main`, but the spawned interpreter starts
        and imports before that, and a SIGTERM then kills it.  So a
        replica is signalled only once it has reported ``running``.
        """
        deadline = self._wall() + timeout
        while True:
            status = self.store.replica_status(child.index)
            if (
                status is not None
                and status["attempt"] == child.attempt
                and status["phase"] == "running"
            ):
                return True
            process = child.process
            if self._wall() >= deadline or (
                process is not None and not process.is_alive()
            ):
                return False
            self._sleep(min(0.05, self.fleet.heartbeat_interval))

    def _drain(self, children: "list[Child]", late: str) -> bool:
        """SIGTERM the children's live processes together and wait out
        their drain; kill stragglers, journaling ``pid N {late} —
        killing``.  True when every one exited 0 inside the deadline."""
        live = [
            child
            for child in children
            if child.process is not None and child.process.is_alive()
        ]
        startup_deadline = self._wall() + self.fleet.drain_timeout
        for child in live:
            self._await_running(child, max(0.0, startup_deadline - self._wall()))
        for child in live:
            child.process.terminate()
        graceful = True
        deadline = self._wall() + self.fleet.drain_timeout + DRAIN_GRACE
        for child in live:
            process = child.process
            child.process = None
            process.join(timeout=max(0.0, deadline - self._wall()))
            if process.is_alive():
                self.store.record_event(
                    child.index, "drain-kill",
                    f"pid {process.pid} {late} — killing",
                )
                process.kill()
                process.join()
                graceful = False
            elif process.exitcode != 0:
                graceful = False
        return graceful

    # ------------------------------------------------------------------
    def drain(self) -> bool:
        """Gracefully shut the whole fleet down (SIGTERM semantics).

        All replicas drain concurrently: each stops accepting, answers
        its in-flight requests under the drain deadline, and exits 0;
        stragglers are killed after the deadline plus grace.

        Returns:
            True when every replica drained gracefully.
        """
        self.store.record_event(FLEET, "fleet-drain", "begin")
        graceful = self._drain(self._children, "did not drain")
        self.store.record_event(
            FLEET, "fleet-stop",
            "all replicas drained" if graceful else "drain incomplete",
        )
        if self.metrics_server is not None:
            self.metrics_server.stop()
            self.metrics_server = None
        self._reservation.close()
        return graceful

    def close(self) -> None:
        """Release the port reservation and the store (post-drain)."""
        if self.metrics_server is not None:
            self.metrics_server.stop()
            self.metrics_server = None
        self._reservation.close()
        self.store.close()

    # ------------------------------------------------------------------
    def run(
        self,
        stop: "threading.Event | None" = None,
        rolling: "threading.Event | None" = None,
    ) -> bool:
        """Supervise until ``stop`` is set, then drain the fleet.

        Args:
            stop: Shutdown request (SIGTERM/SIGINT handlers set it).
            rolling: Rolling-restart request (SIGHUP sets it); consumed
                and cleared each time it is seen.

        Returns:
            :meth:`drain`'s verdict.
        """
        stop = stop if stop is not None else threading.Event()
        self.start()
        while not stop.is_set():
            self.poll()
            if rolling is not None and rolling.is_set():
                rolling.clear()
                self.rolling_restart()
            stop.wait(self._supervisor.poll_interval)
        return self.drain()


__all__ = [
    "FleetConfig",
    "ServeSupervisor",
    "serve_replica_main",
    "FLEET",
]
