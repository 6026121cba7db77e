"""Streamed CSR construction: chunk independence, determinism, parity."""

import pytest

from repro.errors import ConfigurationError
from repro.topology.cycle import cycle_graph
from repro.topology.stream import (
    DEFAULT_STREAM_CHUNK,
    DETERMINISTIC_TOPOLOGIES,
    STREAM_TOPOLOGIES,
    CSRTopology,
    build_csr,
    stream_adjacency,
)


def _flatten(chunks):
    """Reassemble a streamed adjacency into global (indptr, indices)."""
    indptr = [0]
    indices = []
    for chunk in chunks:
        base = len(indices)
        for offset in range(chunk.stop - chunk.start):
            indptr.append(base + chunk.indptr[offset + 1])
        indices.extend(chunk.indices)
    return indptr, indices


class TestStreamAdjacency:
    @pytest.mark.parametrize("topology", STREAM_TOPOLOGIES)
    @pytest.mark.parametrize("chunk", [3, 7, 64, DEFAULT_STREAM_CHUNK])
    def test_chunk_size_never_changes_the_adjacency(self, topology, chunk):
        reference = _flatten(stream_adjacency(topology, 41, seed=9))
        chunked = _flatten(stream_adjacency(topology, 41, seed=9, chunk_nodes=chunk))
        assert chunked == reference

    @pytest.mark.parametrize("topology", STREAM_TOPOLOGIES)
    def test_same_seed_same_graph(self, topology):
        assert _flatten(stream_adjacency(topology, 33, seed=4)) == _flatten(
            stream_adjacency(topology, 33, seed=4)
        )

    @pytest.mark.parametrize("topology", sorted(set(STREAM_TOPOLOGIES) - DETERMINISTIC_TOPOLOGIES))
    def test_different_seed_different_graph(self, topology):
        # Random families must actually vary with the seed.
        streams = {
            tuple(_flatten(stream_adjacency(topology, 64, seed=seed))[1])
            for seed in range(5)
        }
        assert len(streams) > 1

    def test_unknown_topology_is_rejected(self):
        with pytest.raises(ConfigurationError):
            list(stream_adjacency("complete", 8))

    def test_chunks_tile_the_node_range(self):
        chunks = list(stream_adjacency("cycle", 100, chunk_nodes=32))
        assert [(c.start, c.stop) for c in chunks] == [
            (0, 32),
            (32, 64),
            (64, 96),
            (96, 100),
        ]


class TestBuildCSR:
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
