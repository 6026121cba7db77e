"""Integration tests tying the simulator, adversaries and theory together.

Each test here corresponds to a sentence of the paper and checks it across
module boundaries (simulator + adversary + recurrence + certifier), which is
what distinguishes these from the per-module unit tests.
"""

import pytest

from repro.algorithms.cole_vishkin import ColeVishkinRing, cv_rounds_needed
from repro.algorithms.full_gather import BallSimulationOfRounds
from repro.algorithms.largest_id import LargestIdAlgorithm
from repro.api.query import Query
from repro.core.adversary import ExhaustiveAdversary
from repro.core.certification import certify
from repro.core.runner import run_ball_algorithm
from repro.engine.campaign import make_adversary
from repro.model.identifiers import IdentifierAssignment, random_assignment
from repro.theory.bounds import (
    largest_id_average_upper_bound,
    largest_id_sum_upper_bound,
    largest_id_worst_case_bound,
)
from repro.theory.linial import linial_lower_bound_radius
from repro.theory.recurrence import worst_case_cycle_arrangement
from repro.topology.cycle import cycle_graph


class TestSection2LargestId:
    """'The largest ID problem on a cycle has linear worst case complexity,
    and there exists an algorithm with logarithmic average radius.'"""

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_exhaustive_worst_case_sum_equals_the_recurrence_bound(self, n):
        graph = cycle_graph(n)
        result = ExhaustiveAdversary().maximise(graph, LargestIdAlgorithm(), objective="sum")
        assert result.value == largest_id_sum_upper_bound(n)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_exhaustive_worst_case_max_is_linear(self, n):
        graph = cycle_graph(n)
        result = ExhaustiveAdversary().maximise(graph, LargestIdAlgorithm(), objective="max")
        assert result.value == largest_id_worst_case_bound(n)

    @pytest.mark.parametrize("n", [32, 128, 512])
    def test_constructed_worst_arrangement_achieves_the_average_bound(self, n):
        graph = cycle_graph(n)
        ids = IdentifierAssignment(worst_case_cycle_arrangement(n))
        trace = run_ball_algorithm(graph, ids, LargestIdAlgorithm())
        assert certify("largest-id", graph, ids, trace)
        assert trace.average_radius == pytest.approx(largest_id_average_upper_bound(n))
        assert trace.max_radius == largest_id_worst_case_bound(n)

    def test_local_search_never_exceeds_the_analytic_worst_case(self):
        n = 24
        graph = cycle_graph(n)
        local_search = make_adversary(
            "local-search", Query(restarts=2, swaps_per_step=16, max_steps=16), seed=7
        )
        found = local_search.maximise(graph, LargestIdAlgorithm(), objective="average")
        assert found.value <= largest_id_average_upper_bound(n) + 1e-9

    def test_the_gap_between_the_measures_is_exponential_in_scale(self):
        n = 1024
        graph = cycle_graph(n)
        ids = IdentifierAssignment(worst_case_cycle_arrangement(n))
        trace = run_ball_algorithm(graph, ids, LargestIdAlgorithm())
        assert trace.max_radius == n // 2
        assert trace.average_radius < 8  # versus 512 for the classic measure


class TestSection3Coloring:
    """'The vertices need an average radius of Omega(log* n) to compute a
    valid 3-colouring ... this lower bound matches the upper bound.'"""

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_cole_vishkin_average_sits_between_the_bounds(self, n):
        graph = cycle_graph(n)
        ids = random_assignment(n, seed=n)
        algorithm = BallSimulationOfRounds(ColeVishkinRing(n))
        trace = run_ball_algorithm(graph, ids, algorithm)
        assert certify("3-coloring", graph, ids, trace)
        assert linial_lower_bound_radius(n) <= trace.average_radius <= cv_rounds_needed(n)

    def test_no_identifier_assignment_helps_cole_vishkin_beat_the_threshold(self):
        n = 7
        graph = cycle_graph(n)
        algorithm = BallSimulationOfRounds(ColeVishkinRing(n))
        result = ExhaustiveAdversary(max_nodes=7).maximise(graph, algorithm, objective="average")
        # Even the *least* favourable assignment (the adversary maximises, so
        # every assignment is at most this) cannot be below the threshold
        # because all assignments give the same flat radius profile.
        assert result.value >= linial_lower_bound_radius(n)

    def test_averaging_helps_largest_id_but_not_coloring(self):
        n = 128
        graph = cycle_graph(n)
        ids = random_assignment(n, seed=0)
        largest = run_ball_algorithm(graph, ids, LargestIdAlgorithm())
        coloring = run_ball_algorithm(graph, ids, BallSimulationOfRounds(ColeVishkinRing(n)))
        largest_gap = largest.max_radius / largest.average_radius
        coloring_gap = coloring.max_radius / coloring.average_radius
        assert largest_gap > 10
        assert coloring_gap == pytest.approx(1.0)
