"""A pinned digest of §3 generation over the whole seed-2014 catalog.

perfbench checks every pass against a reference computed by the same
program, so a faster kernel that changes an answer would pass it.  This
digest was computed before the universe's search tables existed: any
module whose examples change — a different identification, homology
ranking, alignment score or peptide mass — changes it.  It is the same
across Python 3.10–3.12 and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import hashlib
import json

from repro.campaign import build_world, report_to_dict
from repro.core.generation import ExampleGenerator
from repro.engine import EngineConfig, InvocationEngine
from repro.modules.catalog.decayed import default_decayed

SEED = 2014
GOLDEN = "c17a498e358af9aeaa0f2423c99da616033645c08888907cebe4dc0ea09ddac8"


def test_catalog_and_decayed_reports_keep_their_digest():
    ctx, catalog, pool = build_world(SEED)
    modules = list(catalog) + list(default_decayed())
    assert len(modules) == 324
    generator = ExampleGenerator(
        ctx, pool, seed=SEED, engine=InvocationEngine(EngineConfig())
    )
    reports = [generator.generate(module) for module in modules]
    text = json.dumps([report_to_dict(r) for r in reports], sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN
