"""Tests for the ball-algorithm runner."""

import pytest

from repro.core.algorithm import FunctionBallAlgorithm
from repro.core.runner import run_ball_algorithm
from repro.engine.frontier import FrontierRunner
from repro.errors import AlgorithmError, TopologyError
from repro.model.graph import Graph
from repro.model.identifiers import identity_assignment, random_assignment
from repro.topology.cycle import cycle_graph


def radius_k_algorithm(k):
    """Outputs "done" exactly when the ball radius reaches ``k``."""
    return FunctionBallAlgorithm(
        lambda ball: "done" if ball.radius >= k else None, name=f"radius-{k}"
    )


class TestRunBallAlgorithm:
    def test_records_the_first_deciding_radius(self, ring12, ring12_random_ids):
        trace = run_ball_algorithm(ring12, ring12_random_ids, radius_k_algorithm(3))
        assert set(trace.radii().values()) == {3}
        assert set(trace.outputs_by_position().values()) == {"done"}

    def test_radius_zero_decisions_are_possible(self, ring12, ring12_random_ids):
        trace = run_ball_algorithm(ring12, ring12_random_ids, radius_k_algorithm(0))
        assert trace.max_radius == 0

    def test_refusing_to_decide_raises(self, ring12, ring12_random_ids):
        never = FunctionBallAlgorithm(lambda ball: None, name="never")
        with pytest.raises(AlgorithmError, match="refused to output"):
            run_ball_algorithm(ring12, ring12_random_ids, never)

    def test_max_radius_cap_is_honoured(self, ring12, ring12_random_ids):
        with pytest.raises(AlgorithmError):
            run_ball_algorithm(ring12, ring12_random_ids, radius_k_algorithm(10), max_radius=4)

    def test_identifier_count_mismatch_rejected(self, ring12):
        with pytest.raises(TopologyError):
            run_ball_algorithm(ring12, identity_assignment(5), radius_k_algorithm(0))

    def test_disconnected_graph_rejected(self):
        graph = Graph([(), ()])
        with pytest.raises(TopologyError, match="connected"):
            run_ball_algorithm(graph, identity_assignment(2), radius_k_algorithm(0))

    def test_unsupported_graph_rejected(self):
        cycle_only = FunctionBallAlgorithm(lambda ball: 0, name="picky")
        cycle_only.supports_graph = lambda graph: False
        with pytest.raises(TopologyError, match="does not support"):
            run_ball_algorithm(cycle_graph(5), identity_assignment(5), cycle_only)

    def test_outputs_are_a_pure_function_of_the_view(self):
        # Two nodes with identical views (same identifiers at the same
        # distances) must receive identical outputs.
        algorithm = FunctionBallAlgorithm(
            lambda ball: ball.max_id() if ball.radius >= 1 else None, name="max-at-1"
        )
        graph = cycle_graph(6)
        ids = identity_assignment(6)
        trace = run_ball_algorithm(graph, ids, algorithm)
        assert trace.outputs_by_position()[1] == 2
        assert trace.outputs_by_position()[4] == 5


class TestHelpers:
    def test_one_session_returns_one_trace_per_assignment(self, ring12):
        runner = FrontierRunner(ring12, radius_k_algorithm(1))
        traces = [runner.run(random_assignment(12, seed=s)) for s in range(3)]
        assert len(traces) == 3
        assert all(trace.n == 12 for trace in traces)
