"""The kernel-scored swap evaluator against the incremental oracle.

``incremental_oracle.py`` keeps the incremental re-simulation the swap
strategies used to run: its own tests pin it to full runs, and the
kernel-scored :class:`~repro.search.strategies.SwapEvaluator` must give the
oracle's value for every swap.
"""

import random

import pytest

from incremental_oracle import IncrementalSwapEvaluator, resimulate_node
from repro.algorithms.greedy_coloring import GreedyColoringByID
from repro.algorithms.largest_id import LargestIdAlgorithm
from repro.core.adversary import trace_objective
from repro.core.algorithm import FunctionBallAlgorithm
from repro.engine.cache import DecisionCache
from repro.engine.campaign import build_topology
from repro.engine.frontier import FrontierRunner
from repro.errors import AlgorithmError, AnalysisError, TopologyError
from repro.model.identifiers import (
    IdentifierAssignment,
    identity_assignment,
    random_assignment,
)
from repro.kernel.compile import compile_instance
from repro.search.strategies import SwapEvaluator
from repro.topology.cycle import cycle_graph
from repro.topology.grid import grid_graph


def radius_k_algorithm(k):
    """Outputs "done" exactly when the ball radius reaches ``k``."""
    return FunctionBallAlgorithm(
        lambda ball: "done" if ball.radius >= k else None, name=f"radius-{k}"
    )


class TestResimulateNode:
    def test_error_paths(self, ring12, ring12_random_ids):
        never = FunctionBallAlgorithm(lambda ball: None, name="never")
        with pytest.raises(AlgorithmError, match="position 3 even at radius 5"):
            resimulate_node(cycle_graph(9), never, identity_assignment(9).identifiers(), 3)
        with pytest.raises(AlgorithmError, match="position 0 even at radius 7"):
            resimulate_node(ring12, never, ring12_random_ids.identifiers(), 0)
        with pytest.raises(TopologyError, match="outside"):
            resimulate_node(
                cycle_graph(5), LargestIdAlgorithm(), identity_assignment(5).identifiers(), 9
            )
        with pytest.raises(TopologyError, match="covers 3 positions"):
            resimulate_node(
                ring12, radius_k_algorithm(0), identity_assignment(3).identifiers(), 0
            )

    @pytest.mark.parametrize(
        "graph",
        [
            cycle_graph(9),
            cycle_graph(12),
            grid_graph(3, 4),
            build_topology("random-tree", 11, 7),
            build_topology("gnp", 12, 11),
        ],
        ids=["cycle-9", "cycle-12", "grid-3x4", "random-tree-11", "gnp-12"],
    )
    def test_node_radius_matches_full_run_on_random_instances(self, graph):
        algorithm = LargestIdAlgorithm()
        runner = FrontierRunner(graph, algorithm, cache=DecisionCache(algorithm))
        ids = random_assignment(graph.n, seed=5)
        trace = runner.run(ids)
        identifiers = ids.identifiers()
        for position in graph.positions():
            radius, output = resimulate_node(graph, algorithm, identifiers, position)
            assert radius == trace.radii()[position]
            assert output == trace.outputs_by_position()[position]


class TestIncrementalOracle:
    def test_initial_value_matches_a_full_run(self, ring12, largest_id_algorithm):
        ids = random_assignment(12, seed=5)
        oracle = IncrementalSwapEvaluator(ring12, largest_id_algorithm, "average", ids=ids)
        trace = FrontierRunner(ring12, largest_id_algorithm).run(ids)
        assert oracle.value == pytest.approx(trace.average_radius)
        assert oracle.sum_radius == trace.sum_radius

    def test_peek_does_not_mutate(self, ring12, largest_id_algorithm):
        oracle = IncrementalSwapEvaluator(
            ring12, largest_id_algorithm, ids=identity_assignment(12)
        )
        before_ids = oracle.identifiers
        before_value = oracle.value
        oracle.peek(0, 7)
        assert oracle.identifiers == before_ids
        assert oracle.value == before_value

    def test_peek_matches_full_resimulation(self, ring12, largest_id_algorithm):
        oracle = IncrementalSwapEvaluator(
            ring12, largest_id_algorithm, "average", ids=random_assignment(12, seed=2)
        )
        reference = FrontierRunner(ring12, largest_id_algorithm)
        for a, b in [(0, 1), (0, 6), (3, 9), (10, 11)]:
            delta = oracle.peek(a, b)
            swapped = oracle.assignment().with_swap(a, b)
            expected = trace_objective(reference.run(swapped), "average")
            assert delta.value == pytest.approx(expected)

    def test_commit_then_trace_is_consistent(self, largest_id_algorithm):
        graph = build_topology("random-tree", 10, 8)
        oracle = IncrementalSwapEvaluator(
            graph, largest_id_algorithm, "sum", ids=random_assignment(10, seed=3)
        )
        rng = random.Random(0)
        for _ in range(25):
            a, b = rng.sample(range(10), 2)
            oracle.apply_swap(a, b)
        reference = FrontierRunner(graph, largest_id_algorithm).run(oracle.assignment())
        assert oracle.trace().radii() == reference.radii()
        assert oracle.value == pytest.approx(float(reference.sum_radius))

    def test_max_objective_tracks_the_maximum(self):
        graph = cycle_graph(9)
        algorithm = GreedyColoringByID()
        oracle = IncrementalSwapEvaluator(
            graph, algorithm, "max", ids=random_assignment(9, seed=1)
        )
        reference = FrontierRunner(graph, algorithm)
        rng = random.Random(4)
        for _ in range(15):
            a, b = rng.sample(range(9), 2)
            oracle.apply_swap(a, b)
            expected = reference.run(oracle.assignment()).max_radius
            assert oracle.value == float(expected)

    def test_counts_evaluations(self, ring12, largest_id_algorithm):
        oracle = IncrementalSwapEvaluator(ring12, largest_id_algorithm)
        start = oracle.evaluations
        oracle.peek(0, 1)
        oracle.apply_swap(2, 3)
        assert oracle.evaluations == start + 2


class TestSwapEvaluator:
    def test_initial_value_matches_a_full_run(self, ring12, largest_id_algorithm):
        ids = random_assignment(12, seed=5)
        evaluator = SwapEvaluator(compile_instance(ring12, largest_id_algorithm), "average", ids=ids)
        trace = FrontierRunner(ring12, largest_id_algorithm).run(ids)
        assert evaluator.value == trace.average_radius
        assert evaluator.identifiers == ids.identifiers()
        assert evaluator.evaluations == 1

    def test_rejects_unknown_objective(self, ring12, largest_id_algorithm):
        with pytest.raises(AnalysisError):
            SwapEvaluator(compile_instance(ring12, largest_id_algorithm), objective="median")

    def test_rejects_a_mismatched_assignment(self, ring12, largest_id_algorithm):
        with pytest.raises(TopologyError, match="covers 5 positions"):
            SwapEvaluator(compile_instance(ring12, largest_id_algorithm), ids=identity_assignment(5))

    def test_scores_match_the_oracle_for_every_objective(
        self, ring12, largest_id_algorithm
    ):
        for objective in ("average", "max", "sum"):
            evaluator = SwapEvaluator(compile_instance(ring12, largest_id_algorithm), objective=objective)
            oracle = IncrementalSwapEvaluator(ring12, largest_id_algorithm, objective)
            rng = random.Random(7)
            for _ in range(3):
                pairs = [tuple(rng.sample(range(12), 2)) for _ in range(9)]
                values = evaluator.score(pairs)
                assert values == [oracle.peek(a, b).value for a, b in pairs]
                evaluator.swap(*pairs[0], values[0])
                assert oracle.apply_swap(*pairs[0]) == evaluator.value
                assert evaluator.identifiers == oracle.identifiers

    def test_scores_match_the_oracle_on_the_fallback_rule(self, ring12):
        # An algorithm without a vectorised rule is scored by the kernel's
        # decide-backed RunnerTableRule, one engine run per row.
        algorithm = FunctionBallAlgorithm(LargestIdAlgorithm().decide, name="plain")
        evaluator = SwapEvaluator(compile_instance(ring12, algorithm), ids=random_assignment(12, seed=3))
        assert not evaluator.kernel.vectorized
        oracle = IncrementalSwapEvaluator(ring12, algorithm, ids=random_assignment(12, seed=3))
        pairs = [(0, 5), (1, 7), (2, 2), (3, 11), (4, 8)]
        before = evaluator.evaluations
        assert evaluator.score(pairs) == [oracle.peek(a, b).value for a, b in pairs]
        assert evaluator.evaluations == before + len(pairs)

    def test_scores_with_identifiers_beyond_int64(self, largest_id_algorithm):
        # Identifiers above the numpy int64 range are legal for the runner;
        # the kernel scores them on its stdlib path on either backend.
        ids = IdentifierAssignment(tuple(2**63 + i for i in range(8)))
        evaluator = SwapEvaluator(compile_instance(cycle_graph(8), largest_id_algorithm), ids=ids)
        oracle = IncrementalSwapEvaluator(cycle_graph(8), largest_id_algorithm, ids=ids)
        assert evaluator.value == oracle.value
        pairs = [(0, 1), (2, 3), (4, 5), (6, 7), (1, 6)]
        assert evaluator.score(pairs) == [oracle.peek(a, b).value for a, b in pairs]

    def test_score_counts_evaluations_and_does_not_move_state(
        self, ring12, largest_id_algorithm
    ):
        evaluator = SwapEvaluator(compile_instance(ring12, largest_id_algorithm))
        identifiers = evaluator.identifiers
        value = evaluator.value
        before = evaluator.evaluations
        assert evaluator.score([]) == []
        evaluator.score([(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)])
        assert evaluator.evaluations == before + 5
        assert evaluator.identifiers == identifiers
        assert evaluator.value == value

    def test_swap_moves_without_scoring(self, ring12, largest_id_algorithm):
        evaluator = SwapEvaluator(compile_instance(ring12, largest_id_algorithm))
        (value,) = evaluator.score([(0, 11)])
        before = evaluator.evaluations
        evaluator.swap(0, 11, value)
        assert evaluator.evaluations == before
        assert evaluator.value == value
        assert evaluator.identifiers[0] == 11 and evaluator.identifiers[11] == 0
        full = FrontierRunner(ring12, largest_id_algorithm).run(
            IdentifierAssignment(evaluator.identifiers)
        )
        assert full.average_radius == value
