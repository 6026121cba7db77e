"""Tests for the grid registries and the cell expansion."""

import dataclasses
import math

import pytest

from repro.api import Query, Session
from repro.api.results import strip_volatile
from repro.api.session import query_cells
from repro.engine.campaign import (
    aggregate_dist_rows,
    build_topology,
    make_adversary,
)
from repro.errors import ConfigurationError
from repro.search.adversaries import PrunedExhaustiveAdversary
from repro.search.portfolio import StrategySpec


def _sweep(**overrides):
    fields = dict(
        mode="sweep",
        topologies=("cycle", "path"),
        sizes=(6, 8),
        algorithms=("largest-id",),
        adversaries=("random-search",),
        samples=4,
        seed=13,
    )
    fields.update(overrides)
    return Query(**fields)


def _dist(**overrides):
    fields = dict(
        mode="distribution",
        topologies=("cycle", "path"),
        sizes=(6,),
        algorithms=("largest-id",),
        methods=("exact", "sample"),
        samples=16,
        seed=13,
    )
    fields.update(overrides)
    return Query(**fields)


class TestCells:
    def test_sweep_cells_cover_the_full_grid_with_unique_seeds(self):
        cells = query_cells(_sweep(adversaries=("random-search", "rotation")))
        assert len(cells) == 2 * 2 * 1 * 2
        assert [cell.index for cell in cells] == list(range(len(cells)))
        assert len({cell.seed for cell in cells}) == len(cells)

    def test_dist_cells_cover_the_grid_with_unique_seeds(self):
        cells = query_cells(_dist())
        assert len(cells) == 2 * 1 * 1 * 2
        assert [cell.index for cell in cells] == list(range(len(cells)))
        assert len({cell.seed for cell in cells}) == len(cells)

    def test_worst_case_and_sweep_expand_to_the_same_cells(self):
        query = _sweep(adversaries=("rotation", "branch-and-bound"))
        assert query_cells(query) == query_cells(query.with_changes(mode="worst-case"))


class TestRunCampaign:
    def test_rows_carry_results_and_cache_stats(self):
        rows = Session().sweep(_sweep()).rows
        assert len(rows) == 4
        for row in rows:
            assert row["value"] > 0
            assert row["evaluations"] == 4
            assert not row["exact"]
            assert 0.0 <= row["cache"]["hit_rate"] <= 1.0
            assert len(row["witness_ids"]) == row["graph_n"]

    def test_exhaustive_cells_are_exact(self):
        (row,) = Session().sweep(
            _sweep(topologies=("cycle",), sizes=(5,), adversaries=("exhaustive",))
        ).rows
        assert row["exact"]
        assert row["evaluations"] == 120

    def test_search_adversaries_join_the_grid_with_certificates(self):
        rows = Session().sweep(
            _sweep(
                topologies=("cycle",),
                sizes=(6,),
                adversaries=("pruned-exhaustive", "branch-and-bound", "portfolio"),
            )
        ).rows
        by_name = {row["adversary"]: row for row in rows}
        assert by_name["pruned-exhaustive"]["exact"]
        assert by_name["branch-and-bound"]["exact"]
        assert not by_name["portfolio"]["exact"]
        # Exact searches agree with each other; certificates are JSON rows.
        assert (
            by_name["pruned-exhaustive"]["value"]
            == by_name["branch-and-bound"]["value"]
        )
        assert by_name["pruned-exhaustive"]["certificate"]["group_order"] == 12
        assert by_name["portfolio"]["certificate"]["strategies"]

    def test_round_algorithms_join_via_the_ball_compiler(self):
        (row,) = Session().sweep(
            _sweep(
                topologies=("cycle",),
                sizes=(8,),
                algorithms=("cole-vishkin",),
                adversaries=("rotation",),
            )
        ).rows
        # Cole–Vishkin's profile is flat, so the average equals the max.
        assert row["value"] > 0

    def test_workers_do_not_change_results(self):
        serial = Session().sweep(_sweep(workers=1)).rows
        parallel = Session().sweep(_sweep(workers=2)).rows
        assert strip_volatile(serial) == strip_volatile(parallel)


class TestMakeAdversary:
    def test_budgets_come_from_the_query_fields(self):
        query = Query(samples=7, restarts=3, swaps_per_step=5, max_steps=9, exact_max_nodes=10)
        assert make_adversary("random-search", query).samples == 7
        local = make_adversary("local-search", query, seed=4, workers=2)
        # One hill-climb member per restart, with the query's step budgets.
        climb = StrategySpec.make("hill-climb", swaps_per_step=5, max_steps=9)
        assert local.portfolio.strategies == (climb,) * 3
        assert (local.portfolio.seed, local.portfolio.workers) == (4, 2)
        assert make_adversary("branch-and-bound", query).max_nodes == 10
        assert type(make_adversary("branch-and-bound", query)) is PrunedExhaustiveAdversary

    def test_max_classes_reaches_the_exact_search(self):
        assert make_adversary("pruned-exhaustive", Query(max_classes=77)).max_classes == 77
        # The 7-cycle has 7! / 14 = 360 canonical classes: above a budget of 10.
        query = Query(
            mode="worst-case", topologies="cycle", sizes=7, max_classes=10
        )
        with pytest.raises(ConfigurationError, match="~360 canonical.*budget of 10"):
            Session().run(query)
        # A raised budget lifts the guard; the default still admits the 7-cycle.
        for budget in (360, Query().max_classes):
            Session().run(dataclasses.replace(query, max_classes=budget))

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown adversary"):
            make_adversary("oracle", Query())


class TestBuildTopology:
    def test_known_names_build_graphs(self):
        for name in ("cycle", "path", "grid", "complete", "random-tree", "gnp"):
            graph = build_topology(name, 9, seed=1)
            assert graph.n >= 2

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown topology"):
            build_topology("hypercube", 8, seed=0)


class TestRunDistCampaign:
    def test_exact_rows_cover_n_factorial_with_certificates(self):
        rows = Session().distribution(_dist(methods=("exact",))).rows
        assert len(rows) == 2
        for row in rows:
            assert row["exact"]
            assert row["total_weight"] == math.factorial(row["graph_n"])
            certificate = row["certificate"]
            assert (
                certificate["canonical_leaves"] * certificate["class_weight"]
                == certificate["space_size"]
            )
            assert row["uncertainty"] is None
            assert row["distribution"]["kind"] == "round-distribution"

    def test_sampled_rows_carry_standard_errors(self):
        (row,) = Session().distribution(_dist(topologies=("cycle",), methods=("sample",))).rows
        assert not row["exact"]
        assert row["total_weight"] == 16
        assert row["certificate"] is None
        assert row["uncertainty"]["average"]["std_error"] >= 0.0

    def test_workers_do_not_change_results(self):
        serial = Session().distribution(_dist(workers=1)).rows
        parallel = Session().distribution(_dist(workers=2)).rows
        assert strip_volatile(serial) == strip_volatile(parallel)

    def test_exact_and_sample_cells_share_the_graph_on_random_topologies(self):
        # The comparison is meaningless unless both methods see the same
        # instance: the graph seed must not depend on the method.
        cells = query_cells(_dist(topologies=("random-tree",), sizes=(7,)))
        assert len(cells) == 2
        exact_cell, sample_cell = cells
        assert exact_cell.graph_seed == sample_cell.graph_seed
        assert exact_cell.seed != sample_cell.seed  # sampling streams still differ
        exact_graph = build_topology("random-tree", 7, exact_cell.graph_seed)
        sample_graph = build_topology("random-tree", 7, sample_cell.graph_seed)
        assert [
            exact_graph.neighbors(v) for v in exact_graph.positions()
        ] == [sample_graph.neighbors(v) for v in sample_graph.positions()]

    def test_aggregates_pool_across_graphs(self):
        rows = Session().distribution(_dist(methods=("exact",))).rows
        (aggregate,) = aggregate_dist_rows(rows)
        assert aggregate["cells"] == 2
        assert aggregate["total_weight"] == 2 * math.factorial(6)
        assert aggregate["average"]["mean"] > 0
