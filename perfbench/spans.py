"""In-memory span recording for the traced benchmark run.

The benchmark traces the program from the outside: :class:`SpanRecorder`
replaces a public function or method with a timing wrapper *at the name
its callers look it up by* (a class attribute, or a module global such
as ``repro.engine.invoker.invoke_via_interface``), records one span per
call, and restores the originals afterwards.  Nothing in ``src/`` is
changed, so the untraced passes run the program exactly as users do.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``run`` the pass the span
belongs to.  Spans live in flat ``array`` columns while the run lasts
and are written out once, when it ends (:meth:`SpanRecorder.dump`).

A span's self time is its duration minus the durations of its direct
children.  Self times telescope: summed over every span they equal the
summed duration of the root spans, so per-layer self times plus the
time outside any span (``other``) add up to the traced wall exactly.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    """Records spans from wrapped callables into flat in-memory columns."""

    def __init__(self) -> None:
        self.names: "list[str]" = []
        self._name_ids: "dict[str, int]" = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.current_run = -1
        self._stack: "list[int]" = []
        self._targets: "list[tuple[object, str, object, object]]" = []

    # ------------------------------------------------------------------
    def _wrap(self, span_name: str, fn):
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        name_id = self._name_ids[span_name]
        names, starts, ends, parents, runs = (
            self.name, self.start, self.end, self.parent, self.run
        )
        stack = self._stack
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            runs.append(recorder.current_run)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def target(self, owner, attribute: str, span_name: str) -> None:
        """Register ``owner.attribute`` (a class or module) for tracing
        under ``span_name``; :meth:`install` swaps the wrapper in."""
        original = vars(owner)[attribute]
        self._targets.append(
            (owner, attribute, original, self._wrap(span_name, original))
        )

    def install(self) -> None:
        for owner, attribute, _original, wrapper in self._targets:
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original, _wrapper in self._targets:
            setattr(owner, attribute, original)

    @contextmanager
    def active(self, run: int):
        """Trace the enclosed block as pass ``run``."""
        self.current_run = run
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def __len__(self) -> int:
        return len(self.start)

    # ------------------------------------------------------------------
    def summarize(self) -> "dict[str, dict]":
        """Per span name: call count, summed self time (s), and the list
        of span durations (s) — over every recorded span."""
        child_time = array("d", bytes(8 * len(self.start)))
        durations = [e - s for s, e in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                child_time[parent] += durations[index]
        summary: "dict[str, dict]" = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "durations": []}
        )
        for index, name_id in enumerate(self.name):
            entry = summary[self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += durations[index] - child_time[index]
            entry["durations"].append(durations[index])
        return dict(summary)

    def dump(self, path) -> None:
        """Write every span as gzipped JSON: times in microseconds
        relative to the first span's start."""
        origin = self.start[0] if len(self.start) else 0.0
        document = {
            "columns": ["name", "start_us", "end_us", "parent", "run"],
            "names": self.names,
            "spans": [
                [n, round((s - origin) * 1e6, 3), round((e - origin) * 1e6, 3), p, r]
                for n, s, e, p, r in zip(
                    self.name, self.start, self.end, self.parent, self.run
                )
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
