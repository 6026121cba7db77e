"""Tests for the largest-ID algorithm (paper Section 2)."""

import pytest

from repro.algorithms.largest_id import (
    LargestIdAlgorithm,
    predicted_average_radius,
    predicted_largest_id_radii,
)
from repro.core.certification import certify
from repro.core.runner import run_ball_algorithm
from repro.model.identifiers import (
    IdentifierAssignment,
    identity_assignment,
    random_assignment,
    reversed_assignment,
)
from repro.topology.complete import complete_graph, star_graph
from repro.topology.cycle import cycle_graph
from repro.topology.grid import grid_graph
from repro.topology.path import path_graph
from repro.engine.campaign import build_topology


class TestCorrectness:
    @pytest.mark.parametrize("n", [3, 4, 7, 16, 33])
    def test_output_is_correct_on_cycles_with_random_ids(self, n):
        graph = cycle_graph(n)
        ids = random_assignment(n, seed=n)
        trace = run_ball_algorithm(graph, ids, LargestIdAlgorithm())
        assert certify("largest-id", graph, ids, trace)

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: path_graph(9),
            lambda: complete_graph(6),
            lambda: star_graph(5),
            lambda: grid_graph(3, 4),
            lambda: build_topology("random-tree", 15, 2),
        ],
    )
    def test_output_is_correct_beyond_cycles(self, builder):
        graph = builder()
        ids = random_assignment(graph.n, seed=17)
        trace = run_ball_algorithm(graph, ids, LargestIdAlgorithm())
        assert certify("largest-id", graph, ids, trace)


class TestRadii:
    def test_maximum_vertex_pays_its_eccentricity(self):
        graph = cycle_graph(10)
        ids = identity_assignment(10)
        trace = run_ball_algorithm(graph, ids, LargestIdAlgorithm())
        assert trace.radii()[ids.argmax_position()] == 5

    def test_non_maximum_vertices_stop_at_nearest_larger_identifier(self):
        graph = cycle_graph(8)
        ids = IdentifierAssignment([7, 1, 4, 0, 2, 6, 3, 5])
        trace = run_ball_algorithm(graph, ids, LargestIdAlgorithm())
        radii = trace.radii()
        assert radii[1] == 1  # position 1 (id 1) sees id 7 at distance 1
        assert radii[6] == 1  # position 6 (id 3) sees id 6 at distance 1
        assert radii[2] == 2  # position 2 (id 4) is a local maximum; id 7 sits at distance 2

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_simulated_radii_match_the_closed_form_oracle(self, seed):
        graph = cycle_graph(17)
        ids = random_assignment(17, seed=seed)
        trace = run_ball_algorithm(graph, ids, LargestIdAlgorithm())
        assert trace.radii() == predicted_largest_id_radii(graph, ids)

    def test_oracle_matches_on_trees_as_well(self):
        graph = build_topology("random-tree", 20, 5)
        ids = random_assignment(20, seed=6)
        trace = run_ball_algorithm(graph, ids, LargestIdAlgorithm())
        assert trace.radii() == predicted_largest_id_radii(graph, ids)

    def test_predicted_average_radius_agrees_with_trace(self):
        graph = cycle_graph(15)
        ids = random_assignment(15, seed=8)
        trace = run_ball_algorithm(graph, ids, LargestIdAlgorithm())
        assert predicted_average_radius(graph, ids) == pytest.approx(trace.average_radius)


class TestMeasureSeparation:
    def test_sorted_identifiers_give_constant_average_but_linear_max(self):
        # With identifiers sorted around the ring every non-maximum vertex
        # has a larger neighbour at distance 1.
        n = 40
        graph = cycle_graph(n)
        trace = run_ball_algorithm(graph, identity_assignment(n), LargestIdAlgorithm())
        assert trace.max_radius == n // 2
        assert trace.average_radius == pytest.approx((n - 1 + n // 2) / n)

    def test_reversed_identifiers_behave_like_sorted_ones(self):
        n = 24
        graph = cycle_graph(n)
        forward = run_ball_algorithm(graph, identity_assignment(n), LargestIdAlgorithm())
        backward = run_ball_algorithm(graph, reversed_assignment(n), LargestIdAlgorithm())
        assert forward.average_radius == pytest.approx(backward.average_radius)

    def test_average_is_exponentially_smaller_than_max_on_large_rings(self):
        n = 256
        graph = cycle_graph(n)
        trace = run_ball_algorithm(graph, random_assignment(n, seed=1), LargestIdAlgorithm())
        assert trace.max_radius == n // 2
        assert trace.average_radius < 2 * (n).bit_length()  # well below anything linear

    def test_complete_graph_has_radius_one_everywhere(self):
        graph = complete_graph(7)
        ids = random_assignment(7, seed=3)
        trace = run_ball_algorithm(graph, ids, LargestIdAlgorithm())
        assert set(trace.radii().values()) == {1}
        assert trace.average_radius == trace.max_radius == 1
