"""The cone rules' extent table against graph distances.

:func:`~repro.algorithms.priority_resolution.neighborhood_extent_table` BFSes
every centre over the CSR adjacency; ``extent[v][u]`` must be the first
radius at which ``v``'s ball holds all of ``N(u)``, i.e.
``max(dist(v, w) for w in N(u))`` (0 when ``u`` has no neighbours).  The
oracle is :meth:`~repro.model.graph.Graph.distances_from`.  The wall runs
every registered topology at small n, the one- and two-node graphs, a star,
a complete graph and random connected graphs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.priority_resolution import neighborhood_extent_table
from repro.engine.campaign import TOPOLOGY_BUILDERS, build_topology
from repro.model.graph import Graph
from repro.topology.complete import complete_graph, star_graph
from repro.topology.path import path_graph


def _csr(graph: Graph) -> tuple[list[int], list[int]]:
    indptr, indices = [0], []
    for v in graph.positions():
        indices.extend(graph.neighbors(v))
        indptr.append(len(indices))
    return indptr, indices


def _assert_extent_matches_distances(graph: Graph) -> None:
    extent = neighborhood_extent_table(*_csr(graph))
    assert len(extent) == graph.n
    for v in graph.positions():
        distance = graph.distances_from(v)
        expected = tuple(
            max((distance[w] for w in graph.neighbors(u)), default=0)
            for u in graph.positions()
        )
        assert extent[v] == expected, f"{graph.name} centre {v}"


@pytest.mark.parametrize("n", [3, 4, 5, 7, 9])
@pytest.mark.parametrize("topology", sorted(TOPOLOGY_BUILDERS))
def test_every_registered_topology(topology, n):
    for seed in range(3):
        _assert_extent_matches_distances(build_topology(topology, n, seed=seed))


@pytest.mark.parametrize(
    "graph",
    [
        Graph([()], name="single-node"),
        path_graph(2),
        star_graph(6),
        complete_graph(6),
    ],
    ids=lambda graph: graph.name,
)
def test_extreme_graphs(graph):
    _assert_extent_matches_distances(graph)


@st.composite
def connected_graphs(draw):
    """A random spanning tree on 1..12 nodes plus random extra edges."""
    n = draw(st.integers(min_value=1, max_value=12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for u, v in draw(st.lists(pairs, max_size=2 * n)):
            if u != v:
                edges.add((min(u, v), max(u, v)))
    order = draw(st.permutations(sorted(edges)))
    return Graph.from_edges(n, order, name=f"random-{n}")


@given(graph=connected_graphs())
@settings(max_examples=60, deadline=None)
def test_random_connected_graphs(graph):
    _assert_extent_matches_distances(graph)
