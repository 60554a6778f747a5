"""Pass timing scaled to a reference machine speed.

The benchmark shares its host with other work, and the host's speed
drifts by tens of percent within a minute, for every kind of code
alike.  Raw wall times from runs a minute apart are therefore not
comparable.  :class:`Meter` times a pass in *segments* and runs a fixed
probe — a stdlib-only interpreter workload that shares no code with the
program — right before and after each segment.  A segment's time is
scaled by ``REFERENCE_PROBE_S / probe``, the mean of the two probes
around it: the time the segment would have taken on a host where the
probe runs in ``REFERENCE_PROBE_S``.  Raw times are kept alongside.

The probe runs with the garbage collector off, so the program's heap
(whose size a change to the program may alter) does not change its
speed.  The workloads are single-threaded; a thread left running by
the program would slow the probe as well as the pass.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
from contextlib import contextmanager

#: The probe time the scaled figures refer to, in seconds.
REFERENCE_PROBE_S = 0.006
_PROBE_ROUNDS = 70
_PROBE_REPEATS = 3


def _probe_once() -> float:
    started = time.perf_counter()
    for round_ in range(_PROBE_ROUNDS):
        record = {f"key{i}": [i, f"{round_}:{i}" * 3, {"n": i}] for i in range(40)}
        text = json.dumps(record, sort_keys=True)
        json.loads(text)
        sorted(record, key=lambda key: record[key][1])
        hashlib.sha256(text.encode("utf-8")).hexdigest()
    return time.perf_counter() - started


def probe() -> float:
    """Run the fixed probe workload three times; returns the median wall
    time (s), so a burst that hits one run does not skew the scale."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_probe_once() for _ in range(_PROBE_REPEATS))
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Times one pass as a sequence of probed segments.

    Usage: ``with meter.timed(): ...`` around the pass; inside it,
    ``meter.op(seconds)`` records one operation's latency and
    ``meter.split()`` ends a segment (between operations).

    Attributes:
        wall_s: Raw timed seconds (probes excluded).
        scaled_s: The same time at the reference speed.
        latencies_ms: Operation latencies at the reference speed.
    """

    def __init__(self, scope) -> None:
        self.scope = scope
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self.latencies_ms: "list[float]" = []
        self._ops: "list[float]" = []

    @contextmanager
    def timed(self):
        self._before = probe()
        with self.scope:
            self._start = time.perf_counter()
            yield self
            self._close()

    def op(self, seconds: float) -> None:
        self._ops.append(seconds)

    def split(self) -> None:
        self._close()
        self._start = time.perf_counter()

    def _close(self) -> None:
        seconds = time.perf_counter() - self._start
        after = probe()
        scale = REFERENCE_PROBE_S / ((self._before + after) / 2.0)
        self.wall_s += seconds
        self.scaled_s += seconds * scale
        self.latencies_ms.extend(op * scale * 1000.0 for op in self._ops)
        self._ops = []
        self._before = after
