"""Unit tests of the shared process supervisor (``repro.supervision``).

Nothing is spawned: children are fake process objects, time is a fake
clock, and heartbeats are rows in a dict.  These pin down the
supervision arithmetic the spawn-based suites only observe as events:
the backoff sequence, the exact restart budget, the one policy
difference between campaigns and fleets (what a clean exit means), and
how heartbeat staleness is measured.
"""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import pytest

from repro.campaign.runner import CampaignConfig
from repro.serve.fleet import FleetConfig
from repro.supervision import Child, Heartbeat, ProcessSupervisor, current_beat


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeProcess:
    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.exitcode = None
        self.killed = False

    def join(self, timeout=None) -> None:
        pass

    def kill(self) -> None:
        self.killed = True
        self.exitcode = -9


class Harness:
    """One supervisor over fake children, recording every event."""

    def __init__(self, exit_zero_done: bool = True, n_children: int = 1,
                 **knobs) -> None:
        self.clock = FakeClock()
        self.events: "list[tuple[int, str, str]]" = []
        self.processes: "list[FakeProcess]" = []
        #: child index -> journaled status row (``attempt``, ``heartbeat_wall``)
        self.status: "dict[int, dict]" = {}
        config = SimpleNamespace(
            **{
                "heartbeat_interval": 0.5,
                "heartbeat_timeout": 10.0,
                "max_restarts": 3,
                "restart_backoff": 0.5,
                **knobs,
            }
        )
        self.supervisor = ProcessSupervisor(
            n_children,
            config,
            start=self.start,
            last_beat=lambda child: current_beat(
                self.status.get(child.index), child
            ),
            record=lambda child, kind, detail: self.events.append(
                (child.index, kind, detail)
            ),
            exit_zero_done=exit_zero_done,
            wall_clock=self.clock,
        )
        self.child = self.supervisor.children[0]

    def start(self, child: Child, kind: str) -> FakeProcess:
        process = FakeProcess(pid=100 + len(self.processes))
        self.processes.append(process)
        self.events.append((child.index, kind, f"attempt {child.attempt}"))
        return process

    def spawn_all(self) -> "Harness":
        for child in self.supervisor.children:
            self.supervisor.spawn(child, "spawn")
        return self

    def beat(self, child: Child, attempt: "int | None" = None) -> None:
        self.status[child.index] = {
            "attempt": child.attempt if attempt is None else attempt,
            "heartbeat_wall": self.clock(),
        }

    def kinds(self) -> "list[str]":
        return [kind for _, kind, _ in self.events]

    def crash_and_respawn(self) -> None:
        """Crash the current process, reap it, wait out the backoff."""
        self.child.process.exitcode = 1
        self.supervisor.poll()
        if not self.child.degraded:
            self.clock.now = self.child.restart_at
            self.supervisor.poll()


class TestRestartPolicy:
    def test_backoff_doubles_per_restart(self):
        harness = Harness(restart_backoff=0.5, max_restarts=3).spawn_all()
        delays = []
        for _ in range(3):
            harness.child.process.exitcode = 1
            crashed_at = harness.clock()
            harness.supervisor.poll()
            delays.append(harness.child.restart_at - crashed_at)
            # Not respawned a moment before the backoff ends ...
            harness.clock.now = harness.child.restart_at - 0.01
            harness.supervisor.poll()
            assert harness.child.process is None
            # ... and respawned once it has.
            harness.clock.now = harness.child.restart_at
            harness.supervisor.poll()
            assert harness.child.process is not None
        assert delays == [0.5, 1.0, 2.0]
        scheduled = [
            detail for _, kind, detail in harness.events
            if kind == "restart-scheduled"
        ]
        assert scheduled == [
            "restart 1/3 after 0.5s backoff",
            "restart 2/3 after 1s backoff",
            "restart 3/3 after 2s backoff",
        ]

    def test_degrades_after_exactly_max_restarts(self):
        harness = Harness(max_restarts=2).spawn_all()
        for _ in range(3):
            harness.crash_and_respawn()
        child = harness.child
        assert child.degraded and child.finished
        assert child.restarts == 2
        assert child.attempt == 3  # the first spawn plus two restarts
        assert child.process is None
        assert harness.kinds() == [
            "spawn", "crash", "restart-scheduled", "restart",
            "crash", "restart-scheduled", "restart",
            "crash", "degraded",
        ]
        assert harness.events[-1][2] == "restart budget exhausted (2 restarts)"
        # A degraded child is left down for good.
        harness.clock.advance(3600)
        harness.supervisor.poll()
        assert len(harness.processes) == 3

    def test_zero_restart_budget_degrades_on_first_crash(self):
        harness = Harness(max_restarts=0).spawn_all()
        harness.crash_and_respawn()
        assert harness.child.degraded
        assert harness.kinds() == ["spawn", "crash", "degraded"]


class TestExitPolicy:
    def test_clean_exit_is_done_under_the_campaign_policy(self):
        harness = Harness(exit_zero_done=True).spawn_all()
        harness.child.process.exitcode = 0
        harness.supervisor.poll()
        assert harness.child.done and harness.supervisor.finished
        assert harness.events[-1] == (0, "done", "attempt 1")
        harness.clock.advance(3600)
        harness.supervisor.poll()
        assert len(harness.processes) == 1

    def test_clean_exit_respawns_under_the_fleet_policy(self):
        harness = Harness(exit_zero_done=False).spawn_all()
        harness.child.process.exitcode = 0
        harness.supervisor.poll()
        assert not harness.child.done and not harness.supervisor.finished
        assert harness.kinds()[-2:] == ["crash", "restart-scheduled"]
        assert harness.events[-2][2] == "exit code 0"
        harness.clock.now = harness.child.restart_at
        harness.supervisor.poll()
        assert harness.events[-1] == (0, "restart", "attempt 2")
        assert len(harness.processes) == 2

    def test_supervise_runs_until_every_child_is_finished(self):
        harness = Harness(exit_zero_done=True, n_children=3).spawn_all()
        sleeps = []

        def sleep(seconds: float) -> None:
            # Each pass, one more child finishes its work.
            sleeps.append(seconds)
            harness.processes[len(sleeps) - 1].exitcode = 0

        harness.supervisor.supervise(sleep)
        assert all(child.done for child in harness.supervisor.children)
        assert sleeps == [harness.supervisor.poll_interval] * 3


class TestHeartbeatStaleness:
    def test_measured_from_the_spawn_instant_before_the_first_beat(self):
        harness = Harness(heartbeat_timeout=10.0).spawn_all()
        process = harness.child.process
        harness.clock.advance(10.0)
        harness.supervisor.poll()
        assert not process.killed  # exactly the timeout is not stale
        harness.clock.advance(0.01)
        harness.supervisor.poll()
        assert process.killed
        assert harness.kinds()[-2:] == ["heartbeat-miss", "restart-scheduled"]
        assert harness.events[-2][2] == (
            f"no heartbeat for >10s — killing pid {process.pid}"
        )

    def test_a_fresh_beat_keeps_the_child_alive(self):
        harness = Harness(heartbeat_timeout=10.0).spawn_all()
        for _ in range(5):
            harness.clock.advance(8.0)
            harness.beat(harness.child)
            harness.supervisor.poll()
        assert not harness.child.process.killed
        assert "heartbeat-miss" not in harness.kinds()

    def test_a_beat_from_an_earlier_attempt_is_ignored(self):
        harness = Harness(heartbeat_timeout=10.0).spawn_all()
        harness.crash_and_respawn()
        assert harness.child.attempt == 2
        # A straggler of attempt 1 keeps writing fresh rows; they say
        # nothing about attempt 2, which never beat.
        harness.clock.advance(10.5)
        harness.beat(harness.child, attempt=1)
        harness.supervisor.poll()
        assert harness.child.process is None
        assert "heartbeat-miss" in harness.kinds()

    def test_current_beat_matches_attempts(self):
        child = Child(index=0, attempt=2)
        assert current_beat(None, child) is None
        assert current_beat({"attempt": 1, "heartbeat_wall": 5.0}, child) is None
        assert current_beat({"attempt": 2, "heartbeat_wall": 5.0}, child) == 5.0

    def test_muted_heartbeat_leads_to_a_heartbeat_miss_kill(self):
        harness = Harness(heartbeat_timeout=10.0).spawn_all()
        child = harness.child
        landed = threading.Event()
        muted = threading.Event()
        phases: "list[str]" = []

        def beat(phase: str) -> None:
            phases.append(phase)
            harness.beat(child)
            landed.set()

        heartbeat = Heartbeat(beat, 0.005, "test-heartbeat", muted=muted.is_set)
        heartbeat.start()
        try:
            for _ in range(3):
                harness.clock.advance(8.0)
                landed.clear()
                assert landed.wait(5.0)
                harness.supervisor.poll()
            assert not child.process.killed  # 24s alive on fresh beats
            muted.set()
            time.sleep(0.2)  # let a beat already under way land
            beats_when_muted = len(phases)
            harness.clock.advance(10.5)
            time.sleep(0.2)
            assert len(phases) == beats_when_muted
            process = child.process
            harness.supervisor.poll()
            assert process.killed
            assert "heartbeat-miss" in harness.kinds()
        finally:
            heartbeat.stop(final_phase="done")
        assert not heartbeat.is_alive()
        assert set(phases) == {"running", "done"}
        assert phases[-1] == "done"


class TestConfigs:
    @pytest.mark.parametrize(
        "config, expected",
        [
            (FleetConfig(heartbeat_interval=0.5), 0.2),
            (FleetConfig(heartbeat_interval=0.2), 0.1),
            (CampaignConfig(heartbeat_interval=0.01), 0.05),
        ],
    )
    def test_both_roles_configs_drive_the_poll_cadence(self, config, expected):
        supervisor = ProcessSupervisor(
            1, config, start=None, last_beat=None, record=None,
            exit_zero_done=True,
        )
        assert supervisor.poll_interval == pytest.approx(expected)
