"""What an annotation server samples and the SLOs it is held to: the
source of its :class:`repro.obs.timeseries.Sampler` (the campaign's
own), and the synthetic campaign row it journals under."""

from __future__ import annotations

from repro.campaign.journal import CampaignJournal
from repro.obs.slo import SLO

#: The SLOs an annotation server is held to.  Availability counts 5xx
#: as the error class (4xx are the *client's* errors — shed and
#: rate-limited requests must not burn the server's budget); the
#: latency objective is end-to-end per request, generous enough to
#: cover real generation work.
HTTP_SLOS: "tuple[SLO, ...]" = (
    SLO(name="http-availability", kind="availability", objective=0.99, budget=0.01),
    SLO(name="http-latency-p95", kind="latency_p95", objective=500.0, budget=0.05),
)

#: The synthetic campaign row HTTP samples and alerts are journaled
#: under (``config={"kind": "http-server"}``), so ``repro-cli top`` /
#: ``alerts`` and the SLO gauges cover a server with no storage or
#: rendering code of their own.  A durable server's registrations are
#: its planned modules and its memoized reports its ``done`` entries.
HTTP_CAMPAIGN_ID = "http-server"


def open_http_campaign(journal: CampaignJournal, seed: int) -> None:
    """Create the :data:`HTTP_CAMPAIGN_ID` row unless it exists; every
    process that may write it first calls this.  An older serving file's
    ``serve_reports`` rows move byte for byte into ``done`` entries, its
    ``serve_modules`` ids into the planned modules, and both tables are
    dropped, in one transaction racing replicas can both attempt."""
    try:
        journal.create(HTTP_CAMPAIGN_ID, seed, [], config={"kind": "http-server"})
    except ValueError:
        pass  # made by a sibling replica or an earlier start
    connection = journal._connection
    older = "SELECT 1 FROM sqlite_master WHERE name = 'serve_reports'"
    with journal._lock:
        if connection.execute(older).fetchone() is None:
            return
        connection.execute("BEGIN IMMEDIATE")
        try:
            if connection.execute(older).fetchone() is not None:
                connection.execute(
                    "INSERT OR IGNORE INTO campaign_entries SELECT ?, "
                    "module_id, 'done', '', report_json FROM serve_reports",
                    (HTTP_CAMPAIGN_ID,),
                )
                connection.execute(
                    "UPDATE campaigns SET module_ids_json = (SELECT "
                    "json_group_array(value) FROM (SELECT value FROM "
                    "json_each(campaigns.module_ids_json) UNION "
                    "SELECT module_id FROM serve_modules)) WHERE campaign_id = ?",
                    (HTTP_CAMPAIGN_ID,),
                )
                connection.execute("DROP TABLE serve_reports")
                connection.execute("DROP TABLE serve_modules")
            connection.execute("COMMIT")
        except BaseException:
            connection.execute("ROLLBACK")
            raise


def http_sample(http: dict) -> dict:
    """Shape one HTTP snapshot as an SLO-evaluable sample body.

    ``counters``: ``calls`` = requests served, ``ok`` = 2xx/3xx,
    ``invalid`` = 4xx — which makes the availability SLO's error class
    precisely the 5xx responses; ``latency``: the end-to-end HTTP
    histogram (the engine's bucket shape, so ``latency_over`` works
    unchanged); ``http``: the full snapshot, ``repro-cli top``'s HTTP
    panel.
    """
    classes = http.get("status_classes", {})
    return {
        "counters": {
            "calls": http.get("requests_total", 0),
            "ok": classes.get("2xx", 0) + classes.get("3xx", 0),
            "invalid": classes.get("4xx", 0),
            "malformed": 0,
        },
        "latency": {
            "count": http["latency"]["count"],
            "sum_ms": http["latency"]["sum_ms"],
            "p95_ms": http["latency"]["p95_ms"],
            "max_ms": http["latency"]["max_ms"],
            "cumulative_buckets": [
                list(pair) for pair in http["latency"]["cumulative_buckets"]
            ],
        },
        "health": {},
        # A server never finishes its registered modules the way a
        # campaign finishes its plan; zero progress keeps the
        # coverage-progress SLO quiet by construction.
        "progress": {
            "n_planned": 0,
            "n_done": 0,
            "n_skipped": 0,
            "n_pending": 0,
        },
        "http": http,
    }
