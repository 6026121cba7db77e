"""The cone rules against the extent-table oracle and the frontier runner.

``cone_oracle.py`` keeps the extent table the cone rules used to evaluate
through (one BFS per centre, then the largest table entry over each cone).
The wall first holds that table to graph distances
(:meth:`~repro.model.graph.Graph.distances_from`), then holds
:class:`~repro.kernel.cone.GreedyConeRule` and
:class:`~repro.kernel.cone.RingMISConeRule` to the oracle radius for radius,
on both kernel backends: every registered topology up to n = 64, stars,
complete graphs, random connected graphs, and cycle-1024 / random-tree-1024
with 64 rows.  Rows are random, sorted, reversed and rotated — the sorted
and rotated rows carry the longest increasing paths.  At small n the rules
also equal :class:`~repro.engine.frontier.FrontierRunner`.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cone_oracle import ExtentOracle, neighborhood_extent_table
from repro.algorithms.mis import GreedyMISByID
from repro.algorithms.ring_coloring_via_mis import RingColoringViaMIS
from repro.engine.campaign import TOPOLOGY_BUILDERS, build_topology
from repro.engine.frontier import FrontierRunner
from repro.kernel import compile_instance, numpy_available
from repro.kernel.backend import numpy_module
from repro.kernel.rules import csr_is_ring
from repro.model.graph import Graph
from repro.model.identifiers import IdentifierAssignment
from repro.topology.complete import complete_graph, star_graph
from repro.topology.path import path_graph

BACKENDS = ("python",) + (("numpy",) if numpy_available() else ())

#: Graphs the wall adds to the registered topologies.
EXTRA_BUILDERS = {
    "star": lambda n, seed: star_graph(max(2, n)),
    "complete": lambda n, seed: complete_graph(n),
}


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


def _rows(n: int, seed: int, random_rows: int = 4) -> list[tuple[int, ...]]:
    """Random, sorted, reversed and rotated rows of ``range(n)``."""
    rng = random.Random(seed)
    rows = [tuple(range(n)), tuple(range(n - 1, -1, -1))]
    rows += [tuple((v + shift) % n for v in range(n)) for shift in {1, n // 3, n // 2}]
    for _ in range(random_rows):
        row = list(range(n))
        rng.shuffle(row)
        rows.append(tuple(row))
    return rows


def _assert_rules_match_oracle(graph: Graph, rows, backend: str, expected=None) -> None:
    """Both rules on ``rows`` against the oracle (or its precomputed radii).

    The ring colouring compiles to its cone rule on a cycle in ring order
    and to the runner fallback on one whose positions are relabelled.
    """
    expected = expected or _oracle_radii(graph, rows)
    ring_rule = "ring-mis-cone" if csr_is_ring(*_csr(graph)) else "runner-table"
    for rule, radii in expected.items():
        algorithm = GreedyMISByID() if rule == "greedy-cone-mis" else RingColoringViaMIS()
        instance = compile_instance(graph, algorithm, backend=backend)
        assert instance.rule.name == (rule if rule == "greedy-cone-mis" else ring_rule), (
            graph.name,
            instance.rule.name,
        )
        assert instance.batch_radii(rows) == radii, (graph.name, rule, backend)
        if backend == "numpy":
            matrix = numpy_module().array(rows, dtype="int64")
            assert instance.batch_radii(matrix).tolist() == [
                list(row) for row in radii
            ], (graph.name, rule, "matrix")


def _oracle_radii(graph: Graph, rows) -> dict[str, list[tuple[int, ...]]]:
    """The oracle's radii of every row, by the name of the rule they check."""
    oracle = ExtentOracle(*_csr(graph))
    expected = {"greedy-cone-mis": [oracle.greedy_radii(ids) for ids in rows]}
    if graph.is_cycle():
        expected["ring-mis-cone"] = [oracle.ring_mis_radii(ids) for ids in rows]
    return expected


@functools.lru_cache(maxsize=None)
def _large_case(topology: str):
    """A 1024-node graph, its 64 rows and their oracle radii (both backends)."""
    graph = build_topology(topology, 1024, seed=5)
    rows = _rows(1024, seed=3, random_rows=59)
    return graph, rows, _oracle_radii(graph, rows)


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


# ----------------------------------------------------------------------
# the cone rules against the oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 32, 64])
@pytest.mark.parametrize("topology", sorted({*TOPOLOGY_BUILDERS, *EXTRA_BUILDERS}))
def test_cone_rules_match_the_oracle(topology, n, backend):
    builder = {**TOPOLOGY_BUILDERS, **EXTRA_BUILDERS}[topology]
    if topology == "cycle" and n < 3:
        pytest.skip("a cycle has at least three nodes")
    graph = builder(n, 7)
    _assert_rules_match_oracle(graph, _rows(graph.n, seed=n), backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_cone_rules_on_relabelled_cycles(backend):
    # Positions out of ring order: the run lengths read positions, so the
    # greedy rule takes the ball path and the ring colouring the runner.
    rng = random.Random(11)
    for n in (3, 4, 5, 8, 13):
        ring = list(range(n))
        rng.shuffle(ring)
        edges = [(ring[i], ring[(i + 1) % n]) for i in range(n)]
        rng.shuffle(edges)
        graph = Graph.from_edges(n, edges, name=f"relabelled-cycle-{n}")
        _assert_rules_match_oracle(graph, _rows(n, seed=n), backend)


@given(graph=connected_graphs(), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_cone_rules_on_random_connected_graphs(graph, seed):
    for backend in BACKENDS:
        _assert_rules_match_oracle(graph, _rows(graph.n, seed), backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("topology", ["cycle", "random-tree"])
def test_cone_rules_at_1024_nodes(topology, backend):
    graph, rows, expected = _large_case(topology)
    assert len(rows) == 64
    _assert_rules_match_oracle(graph, rows, backend, expected)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("topology", sorted({*TOPOLOGY_BUILDERS, *EXTRA_BUILDERS}))
def test_cone_rules_match_the_runner(topology, backend):
    graph = {**TOPOLOGY_BUILDERS, **EXTRA_BUILDERS}[topology](9, 4)
    rows = _rows(graph.n, seed=9, random_rows=2)
    algorithms = [GreedyMISByID()]
    if graph.is_cycle():
        algorithms.append(RingColoringViaMIS())
    for algorithm in algorithms:
        runner = FrontierRunner(graph, algorithm)
        expected = []
        for ids in rows:
            radii = runner.run(IdentifierAssignment(ids)).radii()
            expected.append(tuple(radii[v] for v in graph.positions()))
        instance = compile_instance(graph, algorithm, backend=backend)
        assert instance.batch_radii(rows) == expected, (topology, algorithm.name)
