"""Tests for the automorphism machinery behind the symmetry-pruned searches."""

import math

import pytest

from repro.model.graph import Graph
from repro.search.automorphisms import (
    AutomorphismGroup,
    adjacency_automorphisms,
    automorphism_group,
    orbit_partition,
    port_preserving_automorphisms,
    refine_colors,
)
from repro.topology.complete import complete_graph, star_graph
from repro.topology.cycle import cycle_graph
from repro.topology.grid import grid_graph
from repro.topology.path import path_graph
from repro.engine.campaign import build_topology


def assert_is_adjacency_automorphism(graph: Graph, sigma: tuple[int, ...]) -> None:
    assert sorted(sigma) == list(graph.positions())
    for v in graph.positions():
        assert {sigma[u] for u in graph.neighbors(v)} == set(graph.neighbors(sigma[v]))


def assert_is_port_automorphism(graph: Graph, sigma: tuple[int, ...]) -> None:
    assert_is_adjacency_automorphism(graph, sigma)
    for v in graph.positions():
        image_neighbors = graph.neighbors(sigma[v])
        for port, u in enumerate(graph.neighbors(v)):
            assert sigma[u] == image_neighbors[port]


class TestRefineColors:
    def test_regular_graph_collapses_to_one_class(self):
        colors = refine_colors(cycle_graph(8))
        assert len(set(colors)) == 1

    def test_path_distinguishes_by_distance_to_the_ends(self):
        colors = refine_colors(path_graph(5))
        # 0/4 (ends), 1/3 (next to ends) and 2 (middle) are the three classes.
        assert colors[0] == colors[4]
        assert colors[1] == colors[3]
        assert len(set(colors)) == 3

    def test_rejects_wrong_initial_length(self):
        with pytest.raises(ValueError):
            refine_colors(path_graph(4), initial=(0, 1))


class TestPortPreservingAutomorphisms:
    def test_cycle_rotations(self):
        # cycle_graph's port numbering is globally consistent (port 0 =
        # successor), so exactly the n rotations preserve ports.
        n = 9
        group = port_preserving_automorphisms(cycle_graph(n))
        assert len(group) == n
        expected = {tuple((v + shift) % n for v in range(n)) for shift in range(n)}
        assert set(group) == expected

    def test_every_element_is_a_port_automorphism(self):
        for graph in (cycle_graph(6), path_graph(5), grid_graph(3, 3)):
            for sigma in port_preserving_automorphisms(graph):
                assert_is_port_automorphism(graph, sigma)

    def test_identity_always_present(self):
        for graph in (cycle_graph(5), build_topology("random-tree", 7, 1)):
            assert tuple(graph.positions()) in port_preserving_automorphisms(graph)

    def test_disconnected_graph_gets_the_trivial_group(self):
        # The rigidity argument (image of one vertex determines the map)
        # needs connectivity; a disconnected graph must still yield a valid
        # group containing the identity, never an empty one.
        graph = Graph.from_edges(4, [(0, 1), (2, 3)], name="two-edges")
        assert port_preserving_automorphisms(graph) == [(0, 1, 2, 3)]
        group = automorphism_group(graph, respect_ports=True)
        assert group.order == 1
        assert group.is_trivial()


class TestAdjacencyAutomorphisms:
    def test_cycle_dihedral_group(self):
        n = 8
        elements = adjacency_automorphisms(cycle_graph(n))
        assert elements is not None and len(elements) == 2 * n

    def test_path_reversal(self):
        elements = adjacency_automorphisms(path_graph(6))
        assert elements is not None
        assert set(elements) == {tuple(range(6)), tuple(reversed(range(6)))}

    def test_square_grid_has_the_8_symmetries(self):
        elements = adjacency_automorphisms(grid_graph(3, 3))
        assert elements is not None and len(elements) == 8
        for sigma in elements:
            assert_is_adjacency_automorphism(grid_graph(3, 3), sigma)

    def test_size_cap_returns_none(self):
        # The star's leaves are fully interchangeable: 6! = 720 automorphisms.
        assert adjacency_automorphisms(star_graph(6), max_size=100) is None


class TestAutomorphismGroup:
    def test_complete_graph_is_full_symmetric(self):
        group = automorphism_group(complete_graph(7), respect_ports=False)
        assert group.full_symmetric
        assert group.order == math.factorial(7)
        assert orbit_partition(group) == [list(range(7))]

    def test_port_respecting_group_on_the_cycle(self):
        group = automorphism_group(cycle_graph(7), respect_ports=True)
        assert group.respects_ports and group.order == 7
        assert orbit_partition(group) == [list(range(7))]

    def test_cap_falls_back_to_port_preserving(self):
        group = automorphism_group(star_graph(6), respect_ports=False, max_size=100)
        assert group.respects_ports  # fallback engaged
        for sigma in group.elements:
            assert_is_port_automorphism(star_graph(6), sigma)

    def test_cached_on_the_graph(self):
        graph = cycle_graph(6)
        first = automorphism_group(graph, respect_ports=False)
        second = automorphism_group(graph, respect_ports=False)
        assert first is second

    def test_trivial_group_detection(self):
        graph = build_topology("gnp", 9, 11)
        group = automorphism_group(graph, respect_ports=True)
        assert isinstance(group, AutomorphismGroup)
        for sigma in group.elements:
            assert_is_port_automorphism(graph, sigma)

    def test_orbits_partition_the_positions(self):
        for graph in (path_graph(6), grid_graph(3, 4), build_topology("random-tree", 9, 4)):
            group = automorphism_group(graph, respect_ports=False)
            orbits = orbit_partition(group)
            flattened = sorted(v for orbit in orbits for v in orbit)
            assert flattened == list(graph.positions())
