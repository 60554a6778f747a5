"""The serving fleet: N replica processes behind one SO_REUSEPORT port.

One :class:`~repro.serve.app.AnnotationServer` process caps out at its
GIL and dies with its host process.  The fleet applies PR 7's
supervision recipe (:class:`~repro.campaign.supervisor.CampaignSupervisor`)
to the serving layer:

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
  the store's ``serve_events`` timeline for the ``repro-cli serve
  fleet`` post-mortem.
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
from repro.serve.state import ServeStateStore

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


class _ReplicaHeartbeat(threading.Thread):
    """Commits the replica's liveness row on a fixed cadence."""

    def __init__(
        self,
        store: ServeStateStore,
        server: AnnotationServer,
        replica: int,
        attempt: int,
        interval: float,
    ) -> None:
        super().__init__(name=f"replica-{replica:02d}-heartbeat", daemon=True)
        self.store = store
        self.server = server
        self.replica = replica
        self.attempt = attempt
        self.interval = interval
        self.started_wall = time.time()
        # NB: not named ``_stop`` — threading.Thread.join() calls an
        # internal ``self._stop()`` method that an Event would shadow.
        self._halt = threading.Event()

    def beat(self, phase: str) -> None:
        self.store.record_replica(
            self.replica,
            pid=os.getpid(),
            attempt=self.attempt,
            phase=phase,
            requests_total=self.server.metrics.snapshot()["requests_total"],
            started_wall=self.started_wall,
        )
        # The full stats snapshot rides every beat (last write wins,
        # like shard heartbeats): this is how per-replica telemetry
        # leaves the process, and what the supervisor's fleet /metrics
        # fold (MetricsAggregator) reads back — journals alone, no
        # shared memory, no live scrape of each replica.
        self.store.record_replica_stats(self.replica, self.server.stats())

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            self.beat("running")

    def stop(self, final_phase: "str | None" = None) -> None:
        self._halt.set()
        self.join(timeout=5.0)
        if final_phase is not None:
            self.beat(final_phase)


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
    store = ServeStateStore(config.state_db)
    service = AnnotationService(state=store, **spec["service"])
    server = AnnotationServer(service, config)
    # Continuous profiling, armed fleet-wide by REPRO_PROFILE_HZ: the
    # collected profile is journaled at drain time so `repro-cli
    # profile --serve` reconstructs the fleet's time breakdown offline.
    profiler = maybe_start_profiler()

    heartbeat = _ReplicaHeartbeat(
        store, server, replica, attempt, spec["heartbeat_interval"]
    )
    server.start()
    heartbeat.beat("running")
    heartbeat.start()
    stop.wait()
    store.record_event(replica, "drain", f"pid {os.getpid()} draining")
    heartbeat.stop()
    drained = server.drain(timeout=spec["drain_timeout"])
    # The server closed the store; reopen briefly for the final row.
    final = ServeStateStore(config.state_db)
    try:
        final.record_replica(
            replica,
            pid=os.getpid(),
            attempt=attempt,
            phase="drained" if drained else "drain-timeout",
            requests_total=heartbeat.server.metrics.snapshot()["requests_total"],
            started_wall=heartbeat.started_wall,
        )
        final.record_event(
            replica,
            "drained" if drained else "drain-timeout",
            f"pid {os.getpid()}",
        )
        if profiler is not None:
            import json as _json

            final.record_event(
                replica,
                PROFILE_EVENT_KIND,
                _json.dumps(profiler.stop(), sort_keys=True),
            )
    finally:
        final.close()
    return 0


@dataclass
class _ReplicaState:
    """Supervision bookkeeping of one replica (in-memory only)."""

    replica: int
    attempt: int = 0
    restarts: int = 0
    process: "multiprocessing.process.BaseProcess | None" = None
    spawned_at: float = 0.0
    restart_at: float = 0.0
    degraded: bool = False


class ServeSupervisor:
    """Keeps ``fleet.replicas`` serving processes behind one port.

    Args:
        serve_config: The per-replica serving knobs.  ``state_db`` is
            required (the fleet's shared state and post-mortem live
            there); ``port 0`` resolves to a reserved ephemeral port;
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
        ValueError: ``state_db`` missing or ``log_stream`` set.
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
        if serve_config.state_db is None:
            raise ValueError(
                "a serving fleet needs state_db — replicas share "
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
        self.store = ServeStateStore(serve_config.state_db)
        self._states = [
            _ReplicaState(replica=index) for index in range(fleet.replicas)
        ]
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
        if self.register_all:
            from repro.modules.catalog import default_catalog

            for module in default_catalog():
                self.store.register_module(module.module_id)
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

            aggregator = MetricsAggregator(
                state=self.store,
                journal_db=self.serve_config.journal_db,
                campaign_id=self.serve_config.campaign_id,
                wall_clock=self._wall,
            )
            self.metrics_server = MetricsServer(
                aggregator, host=self.host, port=self.fleet.metrics_port
            ).start()
            self.store.record_event(
                FLEET,
                "metrics-start",
                f"fleet /metrics on {self.metrics_server.host}:"
                f"{self.metrics_server.port}",
            )
        for state in self._states:
            self._spawn(state, kind="spawn")
        return self

    def _spawn(self, state: _ReplicaState, kind: str) -> None:
        state.attempt += 1
        # Chaos only on the replica's very first process: a restarted
        # replica must be allowed to serve, or a kill-at-request plan
        # would cycle forever.
        armed = (
            self.fleet.chaos_kill_replica > 0
            and state.attempt == 1
            and kind == "spawn"
        )
        service = dict(self.service_kwargs)
        if armed:
            service["kill_at_request"] = self.fleet.chaos_kill_replica
        serve_config = asdict(self.serve_config)
        serve_config["replica"] = state.replica
        spec = {
            "replica": state.replica,
            "attempt": state.attempt,
            "serve_config": serve_config,
            "service": service,
            "heartbeat_interval": self.fleet.heartbeat_interval,
            "drain_timeout": self.fleet.drain_timeout,
        }
        process = self._mp.Process(
            target=serve_replica_main,
            args=(spec,),
            name=f"repro-replica-{state.replica:02d}",
        )
        process.start()
        state.process = process
        state.spawned_at = self._wall()
        self.store.record_event(
            state.replica,
            kind,
            f"pid {process.pid} attempt {state.attempt}"
            + (", chaos armed" if armed else ""),
            t_wall=state.spawned_at,
        )

    # ------------------------------------------------------------------
    @property
    def pids(self) -> "dict[int, int]":
        """Live replica pids by replica index."""
        return {
            state.replica: state.process.pid
            for state in self._states
            if state.process is not None and state.process.is_alive()
        }

    def healthy_replicas(self) -> int:
        """Replicas currently running with a fresh journaled heartbeat."""
        rows = self.store.replica_rows(
            now=self._wall(), heartbeat_timeout=self.fleet.heartbeat_timeout
        )
        live = {
            state.replica: state.attempt
            for state in self._states
            if state.process is not None and state.process.is_alive()
        }
        return sum(
            1
            for row in rows
            if row["alive"] and live.get(row["replica"]) == row["attempt"]
        )

    def poll(self) -> None:
        """One supervision pass: reap exits, detect wedges, respawn."""
        for state in self._states:
            if state.degraded:
                continue
            if state.process is None:
                if self._wall() >= state.restart_at:
                    self._spawn(state, kind="restart")
                continue
            exitcode = state.process.exitcode
            if exitcode is not None:
                state.process.join()
                # Any unsupervised exit — crash, chaos kill, even a
                # clean 0 nobody asked for — leaves the fleet a replica
                # short; the supervisor's job is to put it back.
                self.store.record_event(
                    state.replica, "crash", f"exit code {exitcode}"
                )
                self._schedule_restart(state)
                continue
            if self._heartbeat_stale(state):
                self.store.record_event(
                    state.replica,
                    "heartbeat-miss",
                    f"no heartbeat for >{self.fleet.heartbeat_timeout:g}s "
                    f"— killing pid {state.process.pid}",
                )
                state.process.kill()
                state.process.join()
                self._schedule_restart(state)

    def _heartbeat_stale(self, state: _ReplicaState) -> bool:
        """Is the replica's journaled heartbeat older than the timeout?
        Before the first beat lands, staleness is measured from the
        spawn instant (world rebuild takes a moment)."""
        last = state.spawned_at
        status = self.store.replica_status(state.replica)
        if status is not None and status["attempt"] == state.attempt:
            last = max(last, status["heartbeat_wall"])
        return self._wall() - last > self.fleet.heartbeat_timeout

    def _schedule_restart(self, state: _ReplicaState) -> None:
        state.process = None
        if state.restarts >= self.fleet.max_restarts:
            state.degraded = True
            self.store.record_event(
                state.replica,
                "degraded",
                f"restart budget exhausted ({self.fleet.max_restarts} "
                "restarts)",
            )
            return
        backoff = self.fleet.restart_backoff * (2 ** state.restarts)
        state.restarts += 1
        state.restart_at = self._wall() + backoff
        self.store.record_event(
            state.replica,
            "restart-scheduled",
            f"restart {state.restarts}/{self.fleet.max_restarts} "
            f"after {backoff:g}s backoff",
        )

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
        for state in self._states:
            if state.degraded:
                continue
            self._drain_one(state)
            self._spawn(state, kind="rolling-restart")
            if not self._await_running(state, settle_timeout):
                ok = False
        self.store.record_event(
            FLEET, "rolling-restart", "complete" if ok else "timed out"
        )
        return ok

    def _await_running(self, state: _ReplicaState, timeout: float) -> bool:
        """Wait until the replica's current attempt has reported
        ``running``; False when it died first or ``timeout`` passed.

        A replica installs its SIGTERM handler early in
        :func:`serve_replica_main`, but the spawned interpreter starts
        and imports before that, and a SIGTERM then kills it.  So a
        replica is signalled only once it has reported ``running``.
        """
        deadline = self._wall() + timeout
        while True:
            status = self.store.replica_status(state.replica)
            if (
                status is not None
                and status["attempt"] == state.attempt
                and status["phase"] == "running"
            ):
                return True
            process = state.process
            if self._wall() >= deadline or (
                process is not None and not process.is_alive()
            ):
                return False
            self._sleep(min(0.05, self.fleet.heartbeat_interval))

    def _drain_one(self, state: _ReplicaState) -> bool:
        """SIGTERM one replica and wait out its drain; kill stragglers.

        Returns True when the replica exited 0 (graceful drain) inside
        the deadline.
        """
        self._await_running(state, self.fleet.drain_timeout)
        process = state.process
        state.process = None
        if process is None or not process.is_alive():
            return True
        process.terminate()
        process.join(timeout=self.fleet.drain_timeout + DRAIN_GRACE)
        if process.is_alive():
            self.store.record_event(
                state.replica,
                "drain-kill",
                f"pid {process.pid} did not drain in "
                f"{self.fleet.drain_timeout:g}s — killing",
            )
            process.kill()
            process.join()
            return False
        return process.exitcode == 0

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
        live = [
            state
            for state in self._states
            if state.process is not None and state.process.is_alive()
        ]
        startup_deadline = self._wall() + self.fleet.drain_timeout
        for state in live:
            self._await_running(state, max(0.0, startup_deadline - self._wall()))
        for state in live:
            state.process.terminate()
        graceful = True
        deadline = self._wall() + self.fleet.drain_timeout + DRAIN_GRACE
        for state in live:
            process = state.process
            state.process = None
            process.join(timeout=max(0.0, deadline - self._wall()))
            if process.is_alive():
                self.store.record_event(
                    state.replica,
                    "drain-kill",
                    f"pid {process.pid} did not drain — killing",
                )
                process.kill()
                process.join()
                graceful = False
            elif process.exitcode != 0:
                graceful = False
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
        poll = max(0.05, min(0.2, self.fleet.heartbeat_interval / 2.0))
        self.start()
        while not stop.is_set():
            self.poll()
            if rolling is not None and rolling.is_set():
                rolling.clear()
                self.rolling_restart()
            stop.wait(poll)
        return self.drain()


__all__ = [
    "FleetConfig",
    "ServeSupervisor",
    "serve_replica_main",
    "FLEET",
]
