"""Bench: regenerating Figure 8 — matching all 72 decayed modules against
the 252 available ones, and repairing the broken repository."""

from repro.core.matching import find_matches
from repro.core.repair import WorkflowRepairer
from repro.experiments.figure8 import run_figure8


def test_bench_matching_all_decayed(benchmark, setup):
    def run():
        return {
            m.module_id: find_matches(
                setup.ctx, m, setup.decayed_examples[m.module_id], setup.catalog
            )
            for m in setup.decayed
        }

    matches = benchmark(run)
    assert len(matches) == 72


def test_bench_repair_campaign(benchmark, setup):
    broken = setup.broken()

    def run():
        repairer = WorkflowRepairer(
            setup.ctx, setup.modules_by_id, setup.matches, setup.pool,
            setup.examples_by_id,
        )
        return repairer.repair_all(broken, setup.historical_traces)

    results = benchmark(run)
    assert len(results) == len(broken)


def test_bench_figure8_report(benchmark, setup):
    result = benchmark(run_figure8, setup)
    assert result.n_equivalent == 16
    assert result.n_repaired_total == 334
