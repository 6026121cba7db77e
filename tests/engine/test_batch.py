"""Tests for the batch executor and deterministic task seeding."""

import pytest

from repro.algorithms.largest_id import LargestIdAlgorithm
from repro.engine.batch import BatchExecutor, derive_task_seed
from repro.engine.frontier import FrontierRunner
from repro.model.identifiers import random_assignment
from repro.topology.cycle import cycle_graph


def _square(x):
    return x * x


def _radii(payload):
    graph, ids = payload
    return FrontierRunner(graph, LargestIdAlgorithm()).run(ids).radii()


class TestDeriveTaskSeed:
    def test_is_deterministic(self):
        assert derive_task_seed(0, "cycle", 8) == derive_task_seed(0, "cycle", 8)

    def test_varies_with_every_coordinate(self):
        base = derive_task_seed(0, "cycle", 8)
        assert derive_task_seed(1, "cycle", 8) != base
        assert derive_task_seed(0, "path", 8) != base
        assert derive_task_seed(0, "cycle", 9) != base

    def test_fits_in_63_bits(self):
        for index in range(64):
            assert 0 <= derive_task_seed(7, index) < 2**63


class TestBatchExecutor:
    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            BatchExecutor(0)

    def test_serial_map_preserves_order(self):
        assert BatchExecutor(1).map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_map_matches_serial(self):
        payloads = list(range(11))
        assert BatchExecutor(3).map(_square, payloads) == [_square(x) for x in payloads]


class TestBatchedSimulation:
    def test_empty_batch(self):
        assert BatchExecutor(3).map(_radii, []) == []

    def test_results_keep_input_order_at_any_worker_count(self):
        graph = cycle_graph(10)
        assignments = [random_assignment(10, seed=seed) for seed in range(7)]
        payloads = [(graph, ids) for ids in assignments]
        serial = BatchExecutor(1).map(_radii, payloads)
        parallel = BatchExecutor(3).map(_radii, payloads)
        assert serial == parallel
        for ids, radii in zip(assignments, serial):
            assert radii[ids.argmax_position()] == 5
