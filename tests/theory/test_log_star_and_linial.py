"""Tests for log*, the Linial threshold and the neighbourhood-graph machinery."""

import pytest

from repro.errors import ConfigurationError
from repro.theory.linial import (
    greedy_chromatic_upper_bound,
    is_k_colorable,
    linial_lower_bound_radius,
    neighborhood_graph,
    neighborhood_graph_chromatic_number,
)
from repro.theory.log_star import log_star, log_star_table, power_tower


class TestLogStarTable:
    def test_table_covers_powers_of_two(self):
        table = log_star_table(10)
        assert table[0] == (1, 0)
        assert table[4] == (16, 3)
        assert len(table) == 11

    def test_values_are_monotone(self):
        values = [value for _, value in log_star_table(20)]
        assert values == sorted(values)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            log_star_table(-1)


class TestLinialThreshold:
    def test_threshold_is_at_least_one(self):
        assert linial_lower_bound_radius(4) >= 1

    @pytest.mark.parametrize("n", [16, 64, 1024, 2**20])
    def test_threshold_is_half_log_star_of_half_n(self, n):
        import math

        assert linial_lower_bound_radius(n) == max(1, math.ceil(0.5 * log_star(n // 2)))

    def test_threshold_is_essentially_flat(self):
        assert linial_lower_bound_radius(2**20) - linial_lower_bound_radius(16) <= 2

    def test_threshold_never_decreases(self):
        values = [linial_lower_bound_radius(n) for n in range(4, 4096, 17)]
        assert values == sorted(values)


class TestNeighborhoodGraph:
    def test_vertex_count_is_falling_factorial(self):
        graph = neighborhood_graph(5, 1)
        assert len(graph) == 5 * 4 * 3

    def test_views_are_adjacent_when_they_overlap_by_a_shift(self):
        graph = neighborhood_graph(4, 1)
        assert (1, 2, 3) in graph[(0, 1, 2)]
        assert (0, 1, 2) in graph[(1, 2, 3)]
        assert (3, 2, 1) not in graph[(0, 1, 2)]

    def test_radius_too_large_for_identifier_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            neighborhood_graph(3, 2)

    def test_oversized_construction_refused(self):
        with pytest.raises(ConfigurationError, match="refusing"):
            neighborhood_graph(12, 3)

    def test_one_round_views_of_tiny_rings_admit_few_colours(self):
        # Linial's argument relates t-round c-colouring algorithms to
        # c-colourability of B_{t,n}.  For very small identifier pools the
        # neighbourhood graph is still easy: a one-round algorithm can
        # 3-colour rings whose identifiers come from a pool of 5.
        assert is_k_colorable(neighborhood_graph(4, 1), 3)
        assert is_k_colorable(neighborhood_graph(5, 1), 3)

    def test_chromatic_number_of_tiny_neighbourhood_graph(self):
        graph = neighborhood_graph(4, 1)
        chromatic = neighborhood_graph_chromatic_number(graph)
        assert any(graph.values())
        assert 2 <= chromatic <= greedy_chromatic_upper_bound(graph)

    @pytest.mark.parametrize(
        "n, edges, greedy", [(4, 24, 2), (5, 120, 3), (6, 360, 4), (7, 840, 5)]
    )
    def test_edge_counts_and_greedy_bounds_are_pinned(self, n, edges, greedy):
        # Values of the earlier graph-library construction and its
        # largest-first greedy colouring, which the dict form reproduces.
        graph = neighborhood_graph(n, 1)
        assert sum(len(neighbours) for neighbours in graph.values()) == 2 * edges
        assert greedy_chromatic_upper_bound(graph) == greedy


def _cycle(n):
    return {v: {(v - 1) % n, (v + 1) % n} for v in range(n)}


def _complete(n):
    return {v: set(range(n)) - {v} for v in range(n)}


def _path(n):
    return {v: {u for u in (v - 1, v + 1) if 0 <= u < n} for v in range(n)}


class TestColorability:
    def test_even_cycle_is_two_colorable_odd_is_not(self):
        assert is_k_colorable(_cycle(6), 2)
        assert not is_k_colorable(_cycle(7), 2)
        assert is_k_colorable(_cycle(7), 3)

    def test_complete_graph_needs_all_colours(self):
        assert not is_k_colorable(_complete(5), 4)
        assert is_k_colorable(_complete(5), 5)
        assert neighborhood_graph_chromatic_number(_complete(5)) == 5
        assert greedy_chromatic_upper_bound(_complete(5)) == 5

    def test_empty_and_edgeless_graphs(self):
        assert neighborhood_graph_chromatic_number({}) == 0
        assert neighborhood_graph_chromatic_number({v: set() for v in range(4)}) == 1
        assert greedy_chromatic_upper_bound({}) == 0
        assert greedy_chromatic_upper_bound({v: set() for v in range(4)}) == 1

    def test_greedy_colours_odd_cycles_and_paths(self):
        assert greedy_chromatic_upper_bound(_cycle(7)) == 3
        assert greedy_chromatic_upper_bound(_path(9)) == 2

    def test_node_limit_guard(self):
        with pytest.raises(ConfigurationError):
            is_k_colorable(_path(50), 2, node_limit=10)

    def test_power_tower_and_log_star_are_inverse_on_small_heights(self):
        for height in range(5):
            assert log_star(power_tower(height)) == height
