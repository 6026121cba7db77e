"""Tests for the further-work experiments E10, E11 and E13."""

import math

from repro.experiments import characterization, distributions, general_graphs
from repro.experiments.harness import run_all_experiments


class TestE10Characterization:
    def test_runs_and_classifies_the_three_regimes(self):
        result = characterization.run(n=64, samples=3)
        assert result.experiment_id == "E10"
        rows = {row["algorithm"]: row for row in result.table.rows}
        assert rows["largest-id"]["classification"] == "collapses"
        assert rows["cole-vishkin"]["classification"] == "stable"
        assert rows["greedy-mis"]["classification"] == "stable"

    def test_cole_vishkin_gap_is_exactly_one(self):
        result = characterization.run(n=64, samples=2)
        rows = {row["algorithm"]: row for row in result.table.rows}
        assert rows["cole-vishkin"]["gap_max_over_avg"] == 1.0

    def test_small_mode_reduces_the_instance(self):
        result = characterization.run(n=512, samples=8, small=True)
        assert all(row["n"] <= 96 for row in result.table.rows)


class TestE11GeneralGraphs:
    def test_runs_and_covers_the_topology_families(self):
        result = general_graphs.run(n=64, samples=2)
        assert result.experiment_id == "E11"
        families = set(result.table.column("family"))
        assert {"cycle", "path", "grid", "torus", "random-tree", "gnp"} <= families

    def test_no_radius_exceeds_the_diameter(self):
        result = general_graphs.run(n=64, samples=2)
        assert all(row["max_radius"] <= row["diameter"] for row in result.table.rows)

    def test_low_diameter_random_graphs_have_small_gaps(self):
        result = general_graphs.run(n=100, samples=2)
        rows = {row["family"]: row for row in result.table.rows}
        assert rows["gnp"]["gap_max_over_avg"] < rows["cycle"]["gap_max_over_avg"]


class TestE13Distributions:
    def test_exact_rows_cover_all_assignments(self):
        result = distributions.run(sizes=[5], samples=32)
        assert result.experiment_id == "E13"
        exact_rows = [row for row in result.table.rows if row["method"] == "exact"]
        assert exact_rows
        assert all(row["weight"] == math.factorial(row["n"]) for row in exact_rows)

    def test_cycle_max_is_a_point_mass_at_half_n(self):
        result = distributions.run(sizes=[6], samples=32)
        cycle_exact = [
            row
            for row in result.table.rows
            if row["family"] == "cycle" and row["method"] == "exact"
        ]
        assert all(row["max_std"] == 0.0 for row in cycle_exact)
        assert all(row["max_mean"] == row["n"] // 2 for row in cycle_exact)

    def test_sampled_rows_report_standard_errors(self):
        result = distributions.run(sizes=[5], samples=32)
        sampled = [row for row in result.table.rows if row["method"] == "sample"]
        assert all(row["avg_se"] > 0 for row in sampled)

    def test_small_mode_shrinks_the_sizes(self):
        result = distributions.run(small=True)
        assert all(row["n"] <= 6 for row in result.table.rows)


class TestRunAll:
    def test_run_all_experiments_includes_the_new_ones(self):
        results = run_all_experiments(small=True)
        ids = [result.experiment_id for result in results]
        assert ids == [
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
            "E11", "E12", "E13",
        ]
