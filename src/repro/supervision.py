"""One supervisor for child processes: spawn, watch, restart, degrade.

Sharded campaigns (:class:`~repro.campaign.supervisor.CampaignSupervisor`)
and the serving fleet (:class:`~repro.serve.fleet.ServeSupervisor`) keep
their children alive with this one loop.  A child that exits or whose
heartbeat goes stale is killed and respawned after exponential backoff,
until its restart budget is spent; then it is left down, degraded.  The
roles differ in one policy: a clean exit (code 0) means a shard is
*done*, but is a crash like any other for a replica.  The core knows
nothing of shards, replicas, SQLite or :mod:`multiprocessing`: a process
is anything with ``pid``, ``exitcode``, ``join()`` and ``kill()``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Child:
    """Supervision bookkeeping of one child (in-memory only — nothing
    here needs to survive a supervisor crash)."""

    index: int
    attempt: int = 0
    restarts: int = 0
    process: Any = None
    spawned_at: float = 0.0
    restart_at: float = 0.0
    done: bool = False
    degraded: bool = False

    @property
    def finished(self) -> bool:
        return self.done or self.degraded


class ProcessSupervisor:
    """Keeps ``n_children`` child processes alive under one policy.

    Args:
        n_children: Children to supervise, indexed ``0..n-1``.
        config: Any object with ``heartbeat_interval``,
            ``heartbeat_timeout``, ``max_restarts`` and
            ``restart_backoff`` (``CampaignConfig``, ``FleetConfig``).
        start: ``start(child, kind) -> process`` spawns the child's
            current attempt and journals the ``kind`` event.
        last_beat: ``last_beat(child)`` is the heartbeat wall time of
            the child's current attempt, ``None`` before its first beat.
        record: ``record(child, kind, detail)`` journals a ``crash``,
            ``heartbeat-miss``, ``restart-scheduled``, ``degraded`` or
            ``done`` event.
        exit_zero_done: Whether a clean exit finishes the child (else it
            is respawned).
        wall_clock: Wall-clock source for heartbeat ages and backoff.
    """

    def __init__(
        self,
        n_children: int,
        config,
        start: Callable[[Child, str], Any],
        last_beat: Callable[[Child], "float | None"],
        record: Callable[[Child, str, str], None],
        exit_zero_done: bool,
        wall_clock: Callable[[], float] = time.time,
    ) -> None:
        self.children = [Child(index) for index in range(n_children)]
        self.config = config
        self._start = start
        self._last_beat = last_beat
        self._record = record
        self.exit_zero_done = exit_zero_done
        self._wall = wall_clock
        #: Seconds between supervision passes.
        self.poll_interval = max(0.05, min(0.2, config.heartbeat_interval / 2.0))

    @property
    def finished(self) -> bool:
        return all(child.finished for child in self.children)

    def spawn(self, child: Child, kind: str) -> None:
        """Start the child's next attempt."""
        child.attempt += 1
        child.spawned_at = self._wall()
        child.process = self._start(child, kind)

    def poll(self) -> None:
        """One supervision pass: reap exits, kill wedged children,
        respawn after backoff."""
        for child in self.children:
            if child.finished:
                continue
            if child.process is None:
                # Waiting out restart backoff.
                if self._wall() >= child.restart_at:
                    self.spawn(child, "restart")
                continue
            exitcode = child.process.exitcode
            if exitcode is not None:
                child.process.join()
                if exitcode == 0 and self.exit_zero_done:
                    child.done = True
                    self._record(child, "done", f"attempt {child.attempt}")
                else:
                    self._record(child, "crash", f"exit code {exitcode}")
                    self._schedule_restart(child)
            elif self._heartbeat_stale(child):
                self._record(
                    child,
                    "heartbeat-miss",
                    f"no heartbeat for >{self.config.heartbeat_timeout:g}s "
                    f"— killing pid {child.process.pid}",
                )
                child.process.kill()
                child.process.join()
                self._schedule_restart(child)

    def supervise(self, sleep: Callable[[float], None] = time.sleep) -> None:
        """Poll until every child is done or degraded."""
        while not self.finished:
            self.poll()
            if not self.finished:
                sleep(self.poll_interval)

    def _heartbeat_stale(self, child: Child) -> bool:
        # Before the first beat lands, staleness is measured from the
        # spawn instant (start-up takes a moment).
        beat = self._last_beat(child)
        last = child.spawned_at if beat is None else max(child.spawned_at, beat)
        return self._wall() - last > self.config.heartbeat_timeout

    def _schedule_restart(self, child: Child) -> None:
        child.process = None
        budget = self.config.max_restarts
        if child.restarts >= budget:
            child.degraded = True
            self._record(
                child, "degraded", f"restart budget exhausted ({budget} restarts)"
            )
            return
        backoff = self.config.restart_backoff * (2 ** child.restarts)
        child.restarts += 1
        child.restart_at = self._wall() + backoff
        self._record(
            child,
            "restart-scheduled",
            f"restart {child.restarts}/{budget} after {backoff:g}s backoff",
        )


def current_beat(status: "dict | None", child: Child) -> "float | None":
    """A journaled status row's ``heartbeat_wall`` when the row belongs
    to the child's current attempt; an earlier attempt's row says
    nothing about this one."""
    if status is not None and status["attempt"] == child.attempt:
        return status["heartbeat_wall"]
    return None


class Heartbeat(threading.Thread):
    """Calls ``beat("running")`` every ``interval`` seconds until
    stopped, skipping beats while ``muted()`` holds: the alive-but-mute
    shape (stall chaos) a heartbeat timeout must catch."""

    def __init__(
        self,
        beat: Callable[[str], None],
        interval: float,
        name: str,
        muted: "Callable[[], bool] | None" = None,
    ) -> None:
        super().__init__(name=name, daemon=True)
        self.beat = beat
        self.interval = interval
        self.muted = muted
        # NB: not named ``_stop`` — threading.Thread.join() calls an
        # internal ``self._stop()`` method that an Event would shadow.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            if self.muted is None or not self.muted():
                self.beat("running")

    def stop(self, final_phase: "str | None" = None) -> None:
        self._halt.set()
        self.join(timeout=5.0)
        if final_phase is not None:
            self.beat(final_phase)
