"""Cross-process determinism of the whole reproduction.

Python randomizes ``str`` hashes per process; any leak of ``hash()`` into
value generation would make two runs disagree.  These tests pin the full
report byte-for-byte across fresh interpreter processes with different
``PYTHONHASHSEED`` values (regression guard for the realization factory's
list-instance seeding).
"""

import os
import subprocess
import sys

import pytest


def _run_snippet(snippet: str, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    result = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True, text=True, env=env, check=True,
    )
    return result.stdout


_POOL_SNIPPET = """
from repro.ontology import build_mygrid_ontology
from repro.pool import InstancePool, default_factory
pool = InstancePool.bootstrap(default_factory(), build_mygrid_ontology())
for value in sorted((v.concept, str(v.payload)[:40]) for v in pool):
    print(value)
"""

_EXAMPLES_SNIPPET = """
import repro
report, evaluation = repro.quick_generate("map.link")
for example in report.examples:
    print(example.inputs[0].value.payload, "->",
          sorted(example.outputs[0].value.payload))
"""

# Every input has tied symbol counts, so the reported most common symbol
# is decided by the tie-break alone.
_COMPOSITION_SNIPPET = """
from repro import default_catalog, default_context
from repro.values.instances import TypedValue
ctx = default_context(2014)
module = {m.module_id: m for m in default_catalog()}["an.composition_profile"]
parameter = module.inputs[0]
for sequence in ("ACGTACGT", "TTGGCCAA", "GATTACAGATTACA", "MKVLAAGG"):
    value = TypedValue(sequence, parameter.structural, parameter.concept)
    outputs = module.invoke(ctx, {parameter.name: value})
    print(sequence, sorted((k, v.payload) for k, v in outputs.items()))
"""


@pytest.mark.slow
class TestCrossProcessDeterminism:
    def test_pool_identical_across_hash_seeds(self):
        first = _run_snippet(_POOL_SNIPPET, "0")
        second = _run_snippet(_POOL_SNIPPET, "424242")
        assert first == second

    def test_generated_examples_identical_across_hash_seeds(self):
        first = _run_snippet(_EXAMPLES_SNIPPET, "1")
        second = _run_snippet(_EXAMPLES_SNIPPET, "99999")
        assert first == second

    def test_composition_profile_ties_identical_across_hash_seeds(self):
        first = _run_snippet(_COMPOSITION_SNIPPET, "0")
        second = _run_snippet(_COMPOSITION_SNIPPET, "2")
        assert first == second
        # Tied counts go to the lexicographically smallest symbol.
        assert all(r"most_common\tA\n" in line for line in first.splitlines())


class TestInProcessDeterminism:
    def test_two_fresh_worlds_agree(self):
        from repro.biodb.universe import BioUniverse
        from repro.modules.model import ModuleContext
        from repro.core.generation import ExampleGenerator
        from repro.modules.catalog.factory import build_catalog
        from repro.ontology import build_mygrid_ontology
        from repro.pool.pool import InstancePool
        from repro.pool.synthesis import RealizationFactory

        ontology = build_mygrid_ontology()

        def world():
            universe = BioUniverse(seed=2014)
            ctx = ModuleContext(universe=universe, ontology=ontology)
            pool = InstancePool.bootstrap(RealizationFactory(universe), ontology)
            generator = ExampleGenerator(ctx, pool)
            module = next(
                m for m in build_catalog() if m.module_id == "ret.get_kegg_gene"
            )
            return generator.generate(module).examples[0]

        first, second = world(), world()
        assert first.inputs[0].value.payload == second.inputs[0].value.payload
        assert first.outputs[0].value.payload == second.outputs[0].value.payload
