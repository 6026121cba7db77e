"""Integration tests for the equivalence of the ball and round views."""

import pytest

from repro.algorithms.cole_vishkin import ColeVishkinRing
from repro.algorithms.full_gather import BallSimulationOfRounds, FullGatherRoundAlgorithm
from repro.algorithms.greedy_coloring import GreedyColoringByID
from repro.algorithms.largest_id import LargestIdAlgorithm
from repro.algorithms.mis import GreedyMISByID
from repro.core.certification import certify
from repro.core.runner import run_ball_algorithm
from repro.model.identifiers import random_assignment
from repro.model.rounds import run_round_algorithm
from repro.topology.cycle import cycle_graph
from repro.engine.campaign import build_topology


@pytest.mark.parametrize("algorithm_factory", [LargestIdAlgorithm, GreedyColoringByID, GreedyMISByID])
@pytest.mark.parametrize("n", [8, 20])
def test_ball_algorithms_survive_round_compilation(algorithm_factory, n):
    graph = cycle_graph(n)
    ids = random_assignment(n, seed=n)
    algorithm = algorithm_factory()
    ball_trace = run_ball_algorithm(graph, ids, algorithm)
    round_trace = run_round_algorithm(graph, ids, FullGatherRoundAlgorithm(algorithm))
    assert ball_trace.outputs_by_position() == round_trace.outputs_by_position()
    assert certify(algorithm.problem, graph, ids, round_trace)
    for position in graph.positions():
        assert 0 <= round_trace.radii()[position] - ball_trace.radii()[position] <= 1


def test_round_compilation_on_a_tree_topology():
    graph = build_topology("random-tree", 18, 4)
    ids = random_assignment(graph.n, seed=5)
    algorithm = LargestIdAlgorithm()
    ball_trace = run_ball_algorithm(graph, ids, algorithm)
    round_trace = run_round_algorithm(graph, ids, FullGatherRoundAlgorithm(algorithm))
    assert ball_trace.outputs_by_position() == round_trace.outputs_by_position()


@pytest.mark.parametrize("n", [8, 33, 64])
def test_round_algorithms_survive_ball_compilation(n):
    graph = cycle_graph(n)
    ids = random_assignment(n, seed=n + 1)
    round_trace = run_round_algorithm(graph, ids, ColeVishkinRing(n))
    ball_trace = run_ball_algorithm(graph, ids, BallSimulationOfRounds(ColeVishkinRing(n)))
    assert round_trace.outputs_by_position() == ball_trace.outputs_by_position()
    assert round_trace.radii() == ball_trace.radii()


def test_double_compilation_is_still_correct():
    n = 16
    graph = cycle_graph(n)
    ids = random_assignment(n, seed=3)
    twice_compiled = FullGatherRoundAlgorithm(BallSimulationOfRounds(ColeVishkinRing(n)))
    trace = run_round_algorithm(graph, ids, twice_compiled)
    assert certify("3-coloring", graph, ids, trace)
