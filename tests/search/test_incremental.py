"""Tests for the incremental swap evaluator."""

import random

import pytest

from repro.algorithms.greedy_coloring import GreedyColoringByID
from repro.core.adversary import trace_objective
from repro.engine.frontier import FrontierRunner
from repro.errors import AnalysisError
from repro.model.identifiers import identity_assignment, random_assignment
from repro.search.incremental import SwapEvaluator
from repro.topology.cycle import cycle_graph
from repro.engine.campaign import build_topology


class TestSwapEvaluator:
    def test_initial_value_matches_a_full_run(self, ring12, largest_id_algorithm):
        ids = random_assignment(12, seed=5)
        evaluator = SwapEvaluator(ring12, largest_id_algorithm, "average", ids=ids)
        trace = FrontierRunner(ring12, largest_id_algorithm).run(ids)
        assert evaluator.value == pytest.approx(trace.average_radius)
        assert evaluator.sum_radius == trace.sum_radius

    def test_peek_does_not_mutate(self, ring12, largest_id_algorithm):
        evaluator = SwapEvaluator(
            ring12, largest_id_algorithm, ids=identity_assignment(12)
        )
        before_ids = evaluator.identifiers
        before_value = evaluator.value
        evaluator.peek(0, 7)
        assert evaluator.identifiers == before_ids
        assert evaluator.value == before_value

    def test_peek_matches_full_resimulation(self, ring12, largest_id_algorithm):
        evaluator = SwapEvaluator(
            ring12, largest_id_algorithm, "average", ids=random_assignment(12, seed=2)
        )
        reference = FrontierRunner(ring12, largest_id_algorithm)
        for a, b in [(0, 1), (0, 6), (3, 9), (10, 11)]:
            delta = evaluator.peek(a, b)
            swapped = evaluator.assignment().with_swap(a, b)
            expected = trace_objective(reference.run(swapped), "average")
            assert delta.value == pytest.approx(expected)

    def test_commit_then_trace_is_consistent(self, largest_id_algorithm):
        graph = build_topology("random-tree", 10, 8)
        evaluator = SwapEvaluator(
            graph, largest_id_algorithm, "sum", ids=random_assignment(10, seed=3)
        )
        rng = random.Random(0)
        for _ in range(25):
            a, b = rng.sample(range(10), 2)
            evaluator.apply_swap(a, b)
        reference = FrontierRunner(graph, largest_id_algorithm).run(
            evaluator.assignment()
        )
        assert evaluator.trace().radii() == reference.radii()
        assert evaluator.value == pytest.approx(float(reference.sum_radius))

    def test_max_objective_tracks_the_maximum(self):
        graph = cycle_graph(9)
        algorithm = GreedyColoringByID()
        evaluator = SwapEvaluator(
            graph, algorithm, "max", ids=random_assignment(9, seed=1)
        )
        reference = FrontierRunner(graph, algorithm)
        rng = random.Random(4)
        for _ in range(15):
            a, b = rng.sample(range(9), 2)
            evaluator.apply_swap(a, b)
            expected = reference.run(evaluator.assignment()).max_radius
            assert evaluator.value == float(expected)

    def test_rejects_unknown_objective(self, ring12, largest_id_algorithm):
        with pytest.raises(AnalysisError):
            SwapEvaluator(ring12, largest_id_algorithm, objective="median")

    def test_counts_evaluations(self, ring12, largest_id_algorithm):
        evaluator = SwapEvaluator(ring12, largest_id_algorithm)
        start = evaluator.evaluations
        evaluator.peek(0, 1)
        evaluator.apply_swap(2, 3)
        assert evaluator.evaluations == start + 2

    def test_batch_values_match_peek_for_every_objective(
        self, ring12, largest_id_algorithm
    ):
        import random

        for objective in ("average", "max", "sum"):
            evaluator = SwapEvaluator(ring12, largest_id_algorithm, objective=objective)
            rng = random.Random(7)
            for _ in range(3):
                pairs = [tuple(rng.sample(range(12), 2)) for _ in range(9)]
                expected = [evaluator.peek(a, b).value for a, b in pairs]
                assert evaluator.peek_values_batch(pairs) == expected
                evaluator.apply_swap(*pairs[0])

    def test_batch_values_match_peek_on_the_fallback_rule(self, ring12):
        # Non-vectorised algorithms take the per-pair path inside the batch
        # API; values and evaluation counting must be identical.
        from repro.algorithms.greedy_coloring import GreedyColoringByID

        evaluator = SwapEvaluator(ring12, GreedyColoringByID())
        pairs = [(0, 5), (1, 7), (2, 2), (3, 11), (4, 8)]
        expected = [evaluator.peek(a, b).value for a, b in pairs]
        before = evaluator.evaluations
        assert evaluator.peek_values_batch(pairs) == expected
        assert evaluator.evaluations == before + len(pairs)

    def test_batch_values_with_identifiers_beyond_int64(self, largest_id_algorithm):
        # Identifiers above the numpy int64 range are legal for the runner;
        # the batch path must quietly take the incremental gear rather than
        # overflow inside the numpy gather.
        from repro.model.identifiers import IdentifierAssignment
        from repro.topology.cycle import cycle_graph

        ids = IdentifierAssignment(tuple(2**63 + i for i in range(8)))
        evaluator = SwapEvaluator(cycle_graph(8), largest_id_algorithm, ids=ids)
        pairs = [(0, 1), (2, 3), (4, 5), (6, 7), (1, 6)]
        expected = [evaluator.peek(a, b).value for a, b in pairs]
        assert evaluator.peek_values_batch(pairs) == expected

    def test_batch_counts_evaluations_and_does_not_move_state(
        self, ring12, largest_id_algorithm
    ):
        evaluator = SwapEvaluator(ring12, largest_id_algorithm)
        identifiers = evaluator.identifiers
        value = evaluator.value
        before = evaluator.evaluations
        assert evaluator.peek_values_batch([]) == []
        evaluator.peek_values_batch([(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)])
        assert evaluator.evaluations == before + 5
        assert evaluator.identifiers == identifiers
        assert evaluator.value == value
