"""Tests for the port-numbered graph structure."""

import pytest

from repro.errors import TopologyError
from repro.model.graph import Graph
from repro.topology.cycle import cycle_graph
from repro.topology.path import path_graph


def triangle() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)], name="triangle")


class TestConstruction:
    def test_from_edges_builds_symmetric_adjacency(self):
        graph = triangle()
        assert graph.n == 3
        assert graph.m == 3
        for u, v in graph.edges():
            assert graph.has_edge(u, v)
            assert graph.has_edge(v, u)

    def test_ports_follow_edge_insertion_order(self):
        graph = Graph.from_edges(3, [(0, 1), (0, 2)])
        assert graph.neighbors(0) == (1, 2)
        assert graph.port_to(0, 1) == 0
        assert graph.port_to(0, 2) == 1

    def test_rejects_self_loops(self):
        with pytest.raises(TopologyError, match="self-loop"):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(TopologyError, match="duplicate"):
            Graph.from_edges(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_endpoints(self):
        with pytest.raises(TopologyError, match="outside"):
            Graph.from_edges(2, [(0, 5)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(TopologyError, match="asymmetric"):
            Graph([(1,), ()])

    def test_rejects_repeated_neighbour_in_adjacency(self):
        with pytest.raises(TopologyError, match="twice"):
            Graph([(1, 1), (0, 0)])


class TestQueries:
    def test_degree_and_max_degree(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert star.degree(0) == 3
        assert star.degree(1) == 1
        assert star.max_degree() == 3

    def test_port_to_unknown_neighbour_raises(self):
        graph = path_graph(3)
        with pytest.raises(TopologyError):
            graph.port_to(0, 2)

    def test_distances_from_on_path(self):
        graph = path_graph(5)
        assert graph.distances_from(0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_distance_symmetry_on_cycle(self):
        graph = cycle_graph(9)
        for u in graph.positions():
            for v in graph.positions():
                assert graph.distance(u, v) == graph.distance(v, u)

    def test_distance_unreachable_raises(self):
        disconnected = Graph([(), ()])
        with pytest.raises(TopologyError, match="unreachable"):
            disconnected.distance(0, 1)

    def test_ball_positions_radius_zero_is_self(self):
        graph = cycle_graph(6)
        assert graph.ball_positions(2, 0) == {2: 0}

    def test_ball_positions_grow_with_radius(self):
        graph = cycle_graph(10)
        sizes = [len(graph.ball_positions(0, r)) for r in range(6)]
        assert sizes == [1, 3, 5, 7, 9, 10]

    def test_eccentricity_and_diameter_of_cycle(self):
        assert cycle_graph(10).diameter() == 5
        assert cycle_graph(11).diameter() == 5
        assert cycle_graph(10).eccentricity(3) == 5

    def test_diameter_of_path(self):
        assert path_graph(7).diameter() == 6

    def test_diameter_rejects_disconnected_graph(self):
        with pytest.raises(TopologyError):
            Graph([(), ()]).diameter()

    def test_is_connected(self):
        assert cycle_graph(5).is_connected()
        assert not Graph([(), ()]).is_connected()
        assert Graph([()]).is_connected()


class TestStructuralPredicates:
    def test_cycle_detection(self):
        assert cycle_graph(5).is_cycle()
        assert not path_graph(5).is_cycle()
        assert not triangle().is_path()

    def test_path_detection(self):
        assert path_graph(5).is_path()
        assert path_graph(1).is_path()
        assert not cycle_graph(5).is_path()

    def test_two_disjoint_triangles_are_not_a_cycle(self):
        graph = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert not graph.is_cycle()


class TestDunder:
    def test_equality_and_hash_depend_on_structure(self):
        assert triangle() == triangle()
        assert hash(triangle()) == hash(triangle())
        assert triangle() != cycle_graph(4)

    def test_repr_mentions_name_and_size(self):
        text = repr(cycle_graph(6))
        assert "cycle-6" in text and "n=6" in text
