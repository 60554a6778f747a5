"""Tests for the universe-scaling invariance experiment."""

import pytest

from repro.experiments.scaling import measure_at_scale, run_scale_sweep


class TestScaling:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_scale_sweep((30, 120, 480))

    def test_histograms_invariant_across_sizes(self, sweep):
        first = sweep[0]
        for point in sweep[1:]:
            assert point.completeness_hist == first.completeness_hist
            assert point.conciseness_hist == first.conciseness_hist

    def test_tables_match_the_paper_at_every_size(self, sweep):
        for point in sweep:
            assert point.completeness_hist == {
                1.0: 234, 0.75: 8, 0.625: 4, 0.6: 4, 0.5: 2,
            }
            assert point.conciseness_hist[0.5] == 32
            assert point.conciseness_hist[0.45] == 7

    def test_example_count_is_size_independent(self, sweep):
        counts = {point.n_examples_total for point in sweep}
        assert len(counts) == 1

    def test_minimum_viable_universe(self):
        point = measure_at_scale(12)
        assert point.completeness_hist[1.0] == 234
