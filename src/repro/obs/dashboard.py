"""A stdlib-only live terminal dashboard for running campaigns.

``repro-cli top`` for the reproduction: everything is read from the
campaign journal (meta, progress rollups, the snapshot timeline, the
alert history), so the dashboard can watch a campaign running in
*another process* — or post-mortem a SIGKILLed one — with no shared
memory and no extra instrumentation.

No curses: the live loop redraws by moving the cursor up over the
previous frame with ANSI escapes, and **snapshot-diffs** — a tick whose
rendered frame is identical to the previous one skips the redraw
entirely, so an idle campaign doesn't flicker.  ``--once`` renders a
single frame with no escapes at all, which is what CI and tests use.

Dumb terminals are first-class: ``--no-color`` (or a non-empty
``NO_COLOR`` environment variable, or ``TERM=dumb``) switches the live
loop to append-only frames with no escape sequences, and the frame
width is re-measured from the terminal on **every** redraw — resizing
the window mid-watch reflows the next frame instead of wrapping
garbage against the startup width.
"""

from __future__ import annotations

import os
import shutil
import sys
import time

from repro.obs.aggregate import merge_http_snapshots, merge_latency
from repro.obs.slo import FIRING, alert_states, alert_subject
from repro.obs.timeseries import by_slot, fleet_rates
from repro.processlog import FLEET_SCOPE, REPLICA

#: Frame width the progress bar is fitted to when the terminal size
#: cannot be measured.
DEFAULT_WIDTH = 72

#: Frames narrower than this are unreadable; clamp instead.
MIN_WIDTH = 40


def ansi_disabled(
    no_color: "bool | None" = None, environ: "dict | None" = None
) -> bool:
    """Should escape sequences be suppressed?

    ``no_color=True`` forces plain output; ``None`` defers to the
    environment — the ``NO_COLOR`` convention (any non-empty value) and
    ``TERM=dumb`` both disable escapes.
    """
    if no_color is not None:
        return no_color
    env = environ if environ is not None else os.environ
    if env.get("NO_COLOR"):
        return True
    return env.get("TERM", "").lower() == "dumb"


def measure_width(stream=None, fallback: int = DEFAULT_WIDTH) -> int:
    """The current terminal width, re-measured at call time.

    ``shutil.get_terminal_size`` consults the live window size (and
    ``COLUMNS``), so calling this per redraw makes mid-session resizes
    take effect on the next frame.  Non-terminal streams (pipes, test
    buffers) get the fallback.
    """
    try:
        if stream is not None and not stream.isatty():
            return fallback
    except (AttributeError, ValueError):
        return fallback
    measured = shutil.get_terminal_size(fallback=(fallback, 24)).columns
    return max(MIN_WIDTH, measured)


def _progress_bar(done: int, skipped: int, planned: int, width: int) -> str:
    if planned <= 0:
        return "[" + " " * width + "]"
    filled = round(width * done / planned)
    dashed = round(width * skipped / planned)
    dashed = min(dashed, width - filled)
    return "[" + "#" * filled + "-" * dashed + "." * (width - filled - dashed) + "]"


def _fleet_summary(label: str, rows: "list[dict]") -> str:
    """``LABEL  A/N alive[, R restarts][, D degraded]`` over the folded
    process rows of the worker or replica panel."""
    alive = sum(1 for row in rows if row["alive"])
    restarts = sum(row["restarts"] for row in rows)
    degraded = sum(1 for row in rows if row["phase"] == "degraded")
    summary = f"  {label:<10} {alive}/{len(rows)} alive"
    if restarts:
        summary += f", {restarts} restarts"
    if degraded:
        summary += f", {degraded} degraded"
    return summary


def fold_newest(samples: "list[dict]") -> "dict | None":
    """The timeline's current state: the newest sample of each process
    slot, folded into one.

    Counters are cumulative per process, so a fleet's current totals
    are the sum of each replica's newest counters: they are summed, the
    latency histograms merged and the ``http`` sections folded by
    :func:`~repro.obs.aggregate.merge_http_snapshots`.  Every other
    section is the newest sample's.  A timeline of one slot (a
    campaign, a standalone server) folds to its newest sample as it is.
    """
    if not samples:
        return None
    newest = [group[-1] for group in by_slot(samples).values()]
    if len(newest) == 1:
        return newest[0]
    counters: dict = {}
    for sample in newest:
        for key, value in sample.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
    folded = dict(samples[-1])
    folded["counters"] = counters
    folded["latency"] = merge_latency(sample.get("latency") for sample in newest)
    https = [sample.get("http") for sample in newest]
    if any(https):
        folded["http"] = merge_http_snapshots(https)
    return folded


def render_dashboard(
    meta,
    progress: dict,
    samples: "list[dict]",
    alert_events: "list[dict]",
    width: int = DEFAULT_WIDTH,
    workers: "list[dict] | None" = None,
    replicas: "list[dict] | None" = None,
) -> str:
    """One dashboard frame, pure over journal-derived state.

    Args:
        meta: The :class:`~repro.campaign.journal.CampaignMeta` row.
        progress: ``{"n_done", "n_skipped"}`` counts.
        samples: Journaled snapshot timeline (oldest first); a fleet's
            replicas interleave theirs, so the rate line sums per-slot
            rates (:func:`~repro.obs.timeseries.fleet_rates`) and the
            calls, latency and HTTP panels fold each slot's newest
            sample (:func:`fold_newest`).
        alert_events: Journaled alert history (recording order).
        width: Total frame width.
        workers: Per-shard worker rows of a sharded campaign
            (:func:`repro.campaign.sharding.worker_rows`); empty or
            None for a serial run.
        replicas: Serving-fleet replica rows
            (:meth:`repro.serve.state.ServeStateStore.replica_rows`)
            when the journal also carries fleet state, or None.
    """
    planned = len(meta.module_ids)
    done = progress.get("n_done", 0)
    skipped = progress.get("n_skipped", 0)
    pending = max(0, planned - done - skipped)
    lines = [
        f"repro top — campaign {meta.campaign_id} "
        f"(seed {meta.seed}, status {meta.status})",
        f"  progress   {_progress_bar(done, skipped, planned, width - 24)} "
        f"{done}/{planned} done",
        f"             {skipped} skipped, {pending} pending",
    ]
    if done == 0 and skipped == 0:
        lines.append("  results    no results journaled yet")
    if workers:
        lines.append(_fleet_summary("workers", workers))
        for row in workers:
            heartbeat = (
                f"hb {row['heartbeat_age']:.1f}s"
                if row["heartbeat_age"] is not None
                else "hb -"
            )
            shard_done = f"{row['n_done']}/{row['n_planned']}"
            if row["n_skipped"]:
                shard_done += f"+{row['n_skipped']}s"
            lines.append(
                f"    shard {row['shard']:<3} worker {row['worker']:<3} "
                f"{row['phase']:<9} {shard_done:<9} "
                f"inv {row['invocations']:<5} "
                f"restarts {row['restarts']:<3} {heartbeat}"
            )
    if replicas:
        lines.append(_fleet_summary("replicas", replicas))
        for row in replicas:
            lines.append(
                f"    replica {row['replica']:<3} pid {row['pid']:<8} "
                f"{row['phase']:<14} att {row['attempt']:<3} "
                f"reqs {row['requests_total']:<6} "
                f"hb {row['heartbeat_age']:.1f}s"
            )
    last = fold_newest(samples)
    if last is None:
        lines.append("  samples    none journaled yet")
    else:
        lines.append(
            f"  samples    {len(samples)} journaled "
            f"(run {last['run']}, t+{last['t_ms'] / 1000.0:.1f}s)"
        )
        counters = last["counters"]
        rate_label = ""
        rates = fleet_rates(samples)
        if rates:
            rate_label = (
                f" | {rates['calls_per_s']:.1f} calls/s, "
                f"{rates['done_per_s']:.2f} modules/s"
            )
        calls = counters.get("calls", 0)
        ok = counters.get("ok", 0)
        hits = counters.get("cache_hits", 0)
        misses = counters.get("cache_misses", 0)
        hit_rate = hits / (hits + misses) if hits + misses else 0.0
        lines.append(
            f"  calls      {calls} total, {ok} ok, "
            f"cache hit {hit_rate:.0%}{rate_label}"
        )
        latency = last["latency"]
        if latency["count"]:
            lines.append(
                f"  latency    p95 {latency['p95_ms']:g}ms  "
                f"max {latency['max_ms']:.1f}ms over {latency['count']} calls"
            )
        breaker = last.get("breaker") or {}
        not_closed = {
            provider: circuit["state"]
            for provider, circuit in breaker.items()
            if circuit["state"] != "closed"
        }
        if breaker:
            label = (
                ", ".join(f"{p} {s}" for p, s in sorted(not_closed.items()))
                if not_closed
                else "all closed"
            )
            lines.append(f"  breakers   {label}")
        health = last.get("health") or {}
        if health:
            dead = health.get("dead_modules", [])
            lines.append(
                f"  health     {health.get('n_modules', 0)} modules observed, "
                f"{len(dead)} observed-dead"
            )
            degraded = [
                (provider, entry)
                for provider, entry in sorted(
                    health.get("providers", {}).items()
                )
                if entry["availability"] < 1.0
            ]
            for provider, entry in degraded[:4]:
                lines.append(
                    f"             ! {provider:<16} availability "
                    f"{entry['availability']:.0%} over {entry['calls']} calls"
                )
    http = (last or {}).get("http")
    if http:
        classes = http.get("status_classes", {})
        lines.append(
            f"  http       inflight {http.get('inflight', 0)}"
            f"/{http.get('max_inflight', 0)}  "
            f"queue {http.get('queue_depth', 0)}/{http.get('max_queue', 0)}  "
            f"shed {http.get('shed_total', 0)}  "
            f"rate-limited {http.get('rate_limited_total', 0)}"
        )
        latency = http.get("latency") or {}
        lines.append(
            f"             {http.get('requests_total', 0)} requests "
            f"({classes.get('2xx', 0)} 2xx, {classes.get('4xx', 0)} 4xx, "
            f"{classes.get('5xx', 0)} 5xx), "
            f"p95 {latency.get('p95_ms', 0.0):g}ms"
        )
    states = alert_states(alert_events)
    firing = [states[key] for key in sorted(states) if states[key]["state"] == FIRING]
    lines.append(
        f"  alerts     {len(firing)} firing / {len(states)} tracked"
    )
    for event in firing[:6]:
        lines.append(
            f"    FIRING   {event['slo']:<16} {alert_subject(event):<24} "
            f"{event['detail']}"
        )
    return "\n".join(lines)


class Dashboard:
    """Live dashboard over a campaign journal.

    Args:
        journal: The campaign journal to poll.
        campaign_id: The campaign to watch.
        stream: Where frames go (stdout).
        interval: Seconds between polls in live mode.
        clock / sleeper: Injectable for tests.
        no_color: True forces escape-free output, False forces escapes,
            None (default) auto-detects (``NO_COLOR`` env, ``TERM=dumb``).
    """

    def __init__(
        self,
        journal,
        campaign_id: str,
        stream=None,
        interval: float = 2.0,
        sleeper=time.sleep,
        no_color: "bool | None" = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.journal = journal
        self.campaign_id = campaign_id
        self.stream = stream if stream is not None else sys.stdout
        self.interval = interval
        self.sleeper = sleeper
        self.no_color = ansi_disabled(no_color)
        #: Frames actually redrawn (diffing suppresses identical ones).
        self.redraws = 0

    # ------------------------------------------------------------------
    def frame(self) -> str:
        """Render one frame from the journal's current state.

        Width is re-measured here — per redraw, not at startup — so a
        resized terminal reflows the very next frame.
        """
        width = measure_width(self.stream)
        meta = self.journal.meta(self.campaign_id)
        progress = self.journal.progress_counts(self.campaign_id)
        samples = self.journal.snapshots(self.campaign_id)
        alerts = self.journal.alerts(self.campaign_id)
        # Imported lazily: obs must not depend on campaign at import
        # time (campaign imports obs for drift/SLO evaluation).
        from repro.campaign.sharding import worker_rows

        events = self.journal.worker_events(self.campaign_id)
        workers = worker_rows(
            self.journal.path, self.campaign_id, meta=meta, events=events
        )
        replicas = (
            self.journal.processes.rows(REPLICA, FLEET_SCOPE, time.time(), 10.0)
            or None
        )
        return render_dashboard(
            meta,
            progress,
            samples,
            alerts,
            width=width,
            workers=workers,
            replicas=replicas,
        )

    def render_once(self) -> str:
        """The ``--once`` path: one frame, no escapes, returned and
        written to the stream."""
        frame = self.frame()
        self.redraws += 1
        print(frame, file=self.stream)
        return frame

    def run(self, iterations: "int | None" = None) -> None:
        """Live loop: poll, diff, redraw in place until the campaign
        leaves the ``running`` state (or ``iterations`` ticks elapse).

        With escapes disabled (``no_color``), changed frames are simply
        appended — a dumb terminal or a log pipe gets clean sequential
        frames instead of cursor-movement garbage."""
        previous: "str | None" = None
        ticks = 0
        while True:
            frame = self.frame()
            if frame != previous:
                if previous is not None:
                    if self.no_color:
                        # Append-only: separate frames, no escapes.
                        self.stream.write("\n")
                    else:
                        # Move up over the previous frame and clear it.
                        height = previous.count("\n") + 1
                        self.stream.write(f"\x1b[{height}A\x1b[J")
                self.stream.write(frame + "\n")
                self.stream.flush()
                self.redraws += 1
                previous = frame
            ticks += 1
            if iterations is not None and ticks >= iterations:
                return
            status = self.journal.meta(self.campaign_id).status
            if status != "running" and previous is not None:
                return
            self.sleeper(self.interval)
