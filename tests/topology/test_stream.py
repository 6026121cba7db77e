"""CSR construction: determinism, backend parity, the lazy cycle, shape."""

import pytest

from repro.errors import ConfigurationError
from repro.kernel import numpy_available
from repro.topology.cycle import cycle_graph
from repro.topology.stream import (
    DETERMINISTIC_TOPOLOGIES,
    SEED_BLOCK,
    STREAM_TOPOLOGIES,
    CSRTopology,
    build_csr,
)

RANDOM_TOPOLOGIES = sorted(set(STREAM_TOPOLOGIES) - DETERMINISTIC_TOPOLOGIES)

#: Sizes around the random families' seed-block edges.
BLOCK_EDGE_SIZES = [1, 2, 3, 41, SEED_BLOCK - 1, SEED_BLOCK, SEED_BLOCK + 1]


def _arrays(csr):
    return bytes(memoryview(csr.indptr).cast("B")), bytes(memoryview(csr.indices).cast("B"))


class TestBackendParity:
    @pytest.mark.skipif(not numpy_available(), reason="numpy backend not installed")
    @pytest.mark.parametrize("topology", RANDOM_TOPOLOGIES)
    @pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
    def test_numpy_and_stdlib_builders_give_the_same_bytes(self, monkeypatch, topology, n):
        built = {seed: _arrays(build_csr(topology, n, seed)) for seed in (0, 1, 9)}
        monkeypatch.setenv("REPRO_KERNEL", "python")
        for seed, arrays in built.items():
            assert _arrays(build_csr(topology, n, seed)) == arrays, (topology, n, seed)

    @pytest.mark.parametrize("topology", RANDOM_TOPOLOGIES)
    def test_rows_are_ascending(self, topology):
        csr = build_csr(topology, 300, seed=5)
        for v in range(csr.n):
            row = list(csr.neighbors(v))
            assert row == sorted(row)


class TestLazyCycle:
    @pytest.mark.parametrize("n", [3, 4, 41, SEED_BLOCK + 1])
    def test_arrays_equal_the_cycle_graph_ports(self, n):
        csr = build_csr("cycle", n)
        graph = cycle_graph(n)
        assert list(csr.indptr) == list(range(0, 2 * n + 1, 2))
        for v in range(n):
            assert tuple(csr.neighbors(v)) == tuple(graph.neighbors(v))

    def test_describe_needs_no_arrays(self):
        csr = build_csr("cycle", 10**6)
        assert csr._indptr is None and csr._indices is None
        assert csr.describe() == {
            "topology": "cycle", "n": 10**6, "m": 10**6, "seed": 0,
            "bytes": 8 * (10**6 + 1 + 2 * 10**6),
        }
        assert csr._indptr is None, "describe() must not build the cycle's arrays"

    def test_describe_is_unchanged_once_the_arrays_exist(self):
        lazy = build_csr("cycle", 50).describe()
        csr = build_csr("cycle", 50)
        csr.to_graph()
        assert csr.describe() == lazy
        assert lazy["bytes"] == (len(csr.indptr) + len(csr.indices)) * 8

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_cycle_needs_three_nodes(self, n):
        with pytest.raises(ConfigurationError):
            build_csr("cycle", n)


class TestBuildCSR:
    @pytest.mark.parametrize("topology", STREAM_TOPOLOGIES)
    def test_same_seed_same_graph(self, topology):
        assert _arrays(build_csr(topology, 33, seed=4)) == _arrays(build_csr(topology, 33, seed=4))

    @pytest.mark.parametrize("topology", RANDOM_TOPOLOGIES)
    def test_different_seed_different_graph(self, topology):
        # Random families must actually vary with the seed.
        graphs = {_arrays(build_csr(topology, 64, seed=seed)) for seed in range(5)}
        assert len(graphs) > 1

    def test_unknown_topology_is_rejected(self):
        with pytest.raises(ConfigurationError):
            build_csr("complete", 8)

    def test_cycle_matches_the_object_graph(self):
        csr = build_csr("cycle", 12)
        graph = cycle_graph(12)
        for v in range(12):
            assert sorted(csr.neighbors(v)) == sorted(graph.neighbors(v))

    def test_deterministic_topologies_normalise_the_seed(self):
        # A cycle is the same graph whatever the seed: the CSR (and its
        # cache key, the spec) must not vary with it.
        assert build_csr("cycle", 10, seed=0).spec == build_csr("cycle", 10, seed=7).spec

    @pytest.mark.parametrize("topology", STREAM_TOPOLOGIES)
    def test_to_graph_round_trip(self, topology):
        csr = build_csr(topology, 23, seed=3)
        graph = csr.to_graph()
        assert graph.n == 23
        for v in range(23):
            assert sorted(graph.neighbors(v)) == sorted(csr.neighbors(v))

    @pytest.mark.parametrize("topology", STREAM_TOPOLOGIES)
    def test_streamed_families_are_connected(self, topology):
        csr = build_csr(topology, 57, seed=11)
        seen = {0}
        frontier = [0]
        while frontier:
            next_frontier = []
            for v in frontier:
                for u in csr.neighbors(v):
                    if u not in seen:
                        seen.add(u)
                        next_frontier.append(u)
            frontier = next_frontier
        assert len(seen) == csr.n

    @pytest.mark.parametrize("topology", STREAM_TOPOLOGIES)
    def test_adjacency_is_symmetric_and_deduplicated(self, topology):
        csr = build_csr(topology, 40, seed=2)
        for v in range(csr.n):
            neighbors = list(csr.neighbors(v))
            assert len(neighbors) == len(set(neighbors))
            assert v not in neighbors
            for u in neighbors:
                assert v in set(csr.neighbors(u))

    def test_describe_reports_the_shape(self):
        csr = build_csr("cycle", 16)
        description = csr.describe()
        assert description["topology"] == "cycle"
        assert description["n"] == 16
        assert description["m"] == 16

    def test_degree_matches_indptr(self):
        csr = build_csr("random-tree", 31, seed=6)
        assert sum(csr.degree(v) for v in range(csr.n)) == 2 * csr.m
        assert isinstance(csr, CSRTopology)
