"""Tests for the exact orbit-weighted distribution."""

import math

import pytest

from repro.algorithms.largest_id import LargestIdAlgorithm
from repro.dist.exact import (
    brute_force_round_distribution,
    exact_round_distribution,
)
from repro.errors import ConfigurationError
from repro.topology.complete import complete_graph
from repro.topology.cycle import cycle_graph
from repro.topology.path import path_graph
from repro.engine.campaign import build_topology


class TestExactEqualsBruteForce:
    @pytest.mark.parametrize(
        "graph",
        [cycle_graph(5), cycle_graph(6), path_graph(5), build_topology("random-tree", 6, 99)],
        ids=lambda graph: graph.name,
    )
    def test_joint_and_marginals_match(self, graph, largest_id_algorithm):
        exact = exact_round_distribution(graph, largest_id_algorithm)
        brute = brute_force_round_distribution(graph, largest_id_algorithm)
        assert exact.distribution == brute
        assert exact.distribution.total_weight == math.factorial(graph.n)


class TestCertificate:
    def test_class_count_times_weight_covers_the_space(self, largest_id_algorithm):
        result = exact_round_distribution(cycle_graph(6), largest_id_algorithm)
        certificate = result.certificate
        assert certificate.exact
        assert certificate.space_size == 720
        assert certificate.group_order == 12  # dihedral group of C6
        assert certificate.class_weight == certificate.group_order
        assert certificate.canonical_leaves * certificate.class_weight == 720
        assert certificate.total_weight == 720

    def test_certificate_serialises_to_plain_json(self, largest_id_algorithm):
        result = exact_round_distribution(cycle_graph(5), largest_id_algorithm)
        document = result.certificate.as_dict()
        assert document["exact"] is True
        assert document["space_size"] == 120
        assert document["canonical_leaves"] * document["class_weight"] == 120

    def test_full_symmetry_collapses_to_one_class(self, largest_id_algorithm):
        result = exact_round_distribution(complete_graph(5), largest_id_algorithm)
        certificate = result.certificate
        assert certificate.canonical_leaves == 1
        assert certificate.class_weight == math.factorial(5)
        assert result.distribution.total_weight == math.factorial(5)
        # On K5 every node stops at radius 1.
        assert result.distribution.max_distribution().support() == (1,)


class TestNodeMarginals:
    def test_marginals_carry_the_full_weight_per_position(self, largest_id_algorithm):
        graph = cycle_graph(6)
        result = exact_round_distribution(graph, largest_id_algorithm)
        for position in range(graph.n):
            marginal = result.distribution.node_marginal(position)
            assert marginal.total_weight == math.factorial(graph.n)

    def test_vertex_transitive_graphs_have_identical_marginals(
        self, largest_id_algorithm
    ):
        result = exact_round_distribution(cycle_graph(6), largest_id_algorithm)
        marginals = [
            result.distribution.node_marginal(v).weights() for v in range(6)
        ]
        assert all(marginal == marginals[0] for marginal in marginals)

    def test_asymmetric_positions_may_differ(self, largest_id_algorithm):
        # On a path the endpoints and the centre see very different worlds.
        result = exact_round_distribution(path_graph(5), largest_id_algorithm)
        endpoint = result.distribution.node_marginal(0)
        centre = result.distribution.node_marginal(2)
        assert endpoint.weights() != centre.weights()


class TestFeasibilityGuards:
    def test_node_cap(self, largest_id_algorithm):
        with pytest.raises(ConfigurationError, match="limited to"):
            exact_round_distribution(
                cycle_graph(8), largest_id_algorithm, max_nodes=6
            )

    def test_class_budget(self, largest_id_algorithm):
        with pytest.raises(ConfigurationError, match="canonical"):
            exact_round_distribution(
                path_graph(8), largest_id_algorithm, max_classes=100
            )

    def test_brute_force_node_cap(self, largest_id_algorithm):
        with pytest.raises(ConfigurationError, match="limited to"):
            brute_force_round_distribution(
                cycle_graph(10), largest_id_algorithm
            )
