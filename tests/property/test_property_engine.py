"""Engine-vs-legacy equivalence on randomised instances.

The acceptance bar for the engine subsystem: on random trees, cycles, grids
and G(n, p) graphs under random identifier assignments, the
:class:`~repro.engine.frontier.FrontierRunner` must produce traces
*identical* to the legacy from-scratch runner for every registered ball
algorithm — with and without a decision cache, and across the cache's
id-relabeling modes.
"""

import pytest

from repro.algorithms.registry import algorithm_registry
from repro.core.algorithm import BallAlgorithm
from repro.core.runner import reference_run_ball_algorithm
from repro.engine.cache import DecisionCache
from repro.engine.frontier import FrontierRunner
from repro.model.identifiers import random_assignment
from repro.topology.cycle import cycle_graph
from repro.topology.grid import grid_graph
from repro.engine.campaign import build_topology

#: (label, graph) — every family from the satellite checklist.
GRAPH_FAMILIES = [
    ("cycle-9", cycle_graph(9)),
    ("cycle-12", cycle_graph(12)),
    ("grid-3x4", grid_graph(3, 4)),
    ("random-tree-11", build_topology("random-tree", 11, 7)),
    ("gnp-12", build_topology("gnp", 12, 11)),
]

ASSIGNMENT_SEEDS = (0, 1, 2)


def _ball_algorithms(n: int):
    """Every registered algorithm usable in the ball view, instantiated for n."""
    algorithms = []
    for name, factory in sorted(algorithm_registry().items()):
        algorithm = factory(n)
        if isinstance(algorithm, BallAlgorithm):
            algorithms.append((name, algorithm))
    return algorithms


def _supported(name: str, algorithm: BallAlgorithm, graph) -> bool:
    if not algorithm.supports_graph(graph):
        return False
    # The compiled Cole–Vishkin needs the consistently oriented ring that
    # only cycle_graph provides (its initialize rejects other degrees).
    if name == "cole-vishkin-ball":
        from repro.algorithms.cole_vishkin import is_consistently_oriented_ring

        return is_consistently_oriented_ring(graph)
    return True


def _assert_traces_equal(reference, candidate, context):
    assert candidate.radii() == reference.radii(), context
    assert candidate.outputs_by_position() == reference.outputs_by_position(), context


@pytest.mark.parametrize(
    "label,graph", GRAPH_FAMILIES, ids=[label for label, _ in GRAPH_FAMILIES]
)
def test_frontier_runner_matches_legacy_for_every_registered_algorithm(label, graph):
    for name, algorithm in _ball_algorithms(graph.n):
        if not _supported(name, algorithm, graph):
            continue
        plain = FrontierRunner(graph, algorithm)
        cached = FrontierRunner(graph, algorithm, cache=DecisionCache(algorithm))
        exact = FrontierRunner(
            graph, algorithm, cache=DecisionCache(algorithm, relabel_ids=False)
        )
        for seed in ASSIGNMENT_SEEDS:
            ids = random_assignment(graph.n, seed=seed)
            reference = reference_run_ball_algorithm(graph, ids, algorithm)
            context = f"{label}/{name}/seed={seed}"
            _assert_traces_equal(reference, plain.run(ids), context + "/no-cache")
            _assert_traces_equal(reference, cached.run(ids), context + "/cache")
            _assert_traces_equal(reference, exact.run(ids), context + "/exact-cache")


def test_cached_session_is_consistent_across_repeated_assignments():
    # Re-running earlier assignments against a warm cache must reproduce the
    # cold traces bit for bit (memoisation must not leak between patterns).
    graph = cycle_graph(16)
    for name, algorithm in _ball_algorithms(graph.n):
        if not _supported(name, algorithm, graph):
            continue
        runner = FrontierRunner(graph, algorithm, cache=DecisionCache(algorithm))
        assignments = [random_assignment(16, seed=seed) for seed in range(6)]
        cold = [runner.run(ids) for ids in assignments]
        warm = [runner.run(ids) for ids in assignments]
        for ids, before, after in zip(assignments, cold, warm):
            _assert_traces_equal(before, after, f"{name}/{ids.identifiers()}")


def _run_largest_id(payload):
    graph, ids = payload
    from repro.algorithms.largest_id import LargestIdAlgorithm

    return FrontierRunner(graph, LargestIdAlgorithm()).run(ids)


def test_batch_executor_matches_serial_runs():
    from repro.algorithms.largest_id import LargestIdAlgorithm
    from repro.engine.batch import BatchExecutor

    graph = build_topology("random-tree", 12, 3)
    algorithm = LargestIdAlgorithm()
    assignments = [random_assignment(12, seed=seed) for seed in range(8)]
    serial = [reference_run_ball_algorithm(graph, ids, algorithm) for ids in assignments]
    for workers in (1, 3):
        batched = BatchExecutor(workers).map(
            _run_largest_id, [(graph, ids) for ids in assignments]
        )
        assert len(batched) == len(serial)
        for reference, candidate in zip(serial, batched):
            _assert_traces_equal(reference, candidate, f"workers={workers}")

