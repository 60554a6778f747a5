"""Universe-scaling invariance.

The §4 metrics are properties of the *module designs* and the ontology,
not of the database content: completeness and conciseness depend on which
partitions exist and which behavior branches fire, and the pool always
supplies one realization per partition.  Regenerating the universe at a
quarter or four times the default size must therefore leave Tables 1 and
2 *identical* — a strong internal-validity check on the reproduction
(if the numbers moved with database size, they would be artifacts of the
data, not of the heuristic).

Wall-clock, on the other hand, is expected to grow with universe size
(homology searches scan every protein); the scaling bench records that.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.biodb.universe import BioUniverse
from repro.core.generation import ExampleGenerator
from repro.core.metrics import evaluate_module, histogram
from repro.modules.catalog.factory import build_catalog
from repro.modules.model import ModuleContext
from repro.ontology import build_mygrid_ontology
from repro.pool.pool import InstancePool
from repro.pool.synthesis import RealizationFactory


@dataclass(frozen=True)
class ScalePoint:
    """Histograms measured at one universe size."""

    n_proteins: int
    completeness_hist: dict[float, int]
    conciseness_hist: dict[float, int]
    n_examples_total: int


def measure_at_scale(n_proteins: int, seed: int = 2014) -> ScalePoint:
    """Rebuild universe + pool at ``n_proteins`` and run the §4 pipeline.

    The catalog itself is independent of the universe instance; only the
    execution context and the pool are regenerated.
    """
    universe = BioUniverse(
        seed=seed,
        n_proteins=n_proteins,
        n_pathways=max(4, n_proteins // 5),
        n_compounds=max(8, n_proteins // 3),
    )
    ontology = build_mygrid_ontology()
    ctx = ModuleContext(universe=universe, ontology=ontology)
    pool = InstancePool.bootstrap(RealizationFactory(universe), ontology)
    generator = ExampleGenerator(ctx, pool)
    catalog = build_catalog()
    completeness: list[float] = []
    conciseness: list[float] = []
    total = 0
    for module in catalog:
        report = generator.generate(module)
        evaluation = evaluate_module(ctx, module, report.examples)
        completeness.append(evaluation.completeness)
        conciseness.append(evaluation.conciseness)
        total += report.n_examples
    return ScalePoint(
        n_proteins=n_proteins,
        completeness_hist=dict(histogram(completeness, 3)),
        conciseness_hist=dict(histogram(conciseness, 2)),
        n_examples_total=total,
    )


def run_scale_sweep(sizes: tuple = (30, 120, 480), seed: int = 2014) -> "list[ScalePoint]":
    """Measure the pipeline at several universe sizes."""
    return [measure_at_scale(size, seed=seed) for size in sizes]
