"""Tests for the identifier-assignment adversaries."""

import pytest

from repro.api.query import Query
from repro.core.adversary import (
    ExhaustiveAdversary,
    RandomSearchAdversary,
    RotationAdversary,
    trace_objective,
)
from repro.core.runner import run_ball_algorithm
from repro.engine.campaign import make_adversary
from repro.errors import AnalysisError, ConfigurationError
from repro.model.identifiers import IdentifierAssignment, identity_assignment
from repro.theory.bounds import largest_id_sum_upper_bound
from repro.topology.cycle import cycle_graph


class TestExhaustiveAdversary:
    def test_finds_the_exact_worst_average_on_a_small_cycle(self, largest_id_algorithm):
        graph = cycle_graph(6)
        result = ExhaustiveAdversary().maximise(graph, largest_id_algorithm, objective="sum")
        assert result.exact
        assert result.evaluations == 720
        # The recurrence bound floor(n/2) + a(n-1) is exactly the worst case.
        assert result.value == largest_id_sum_upper_bound(6)

    def test_refuses_large_graphs(self, largest_id_algorithm):
        with pytest.raises(ConfigurationError, match="limited"):
            ExhaustiveAdversary(max_nodes=5).maximise(cycle_graph(8), largest_id_algorithm)

    def test_witness_assignment_reproduces_the_value(self, largest_id_algorithm):
        graph = cycle_graph(5)
        result = ExhaustiveAdversary().maximise(graph, largest_id_algorithm, objective="average")
        trace = run_ball_algorithm(graph, result.assignment, largest_id_algorithm)
        assert trace.average_radius == pytest.approx(result.value)


class TestRandomSearchAdversary:
    def test_returns_best_of_the_sampled_assignments(self, ring12, largest_id_algorithm):
        result = RandomSearchAdversary(samples=10, seed=1).maximise(
            ring12, largest_id_algorithm, objective="average"
        )
        assert not result.exact
        assert result.evaluations == 10
        trace = run_ball_algorithm(ring12, result.assignment, largest_id_algorithm)
        assert trace.average_radius == pytest.approx(result.value)

    def test_deterministic_given_seed(self, ring12, largest_id_algorithm):
        a = RandomSearchAdversary(samples=6, seed=9).maximise(ring12, largest_id_algorithm)
        b = RandomSearchAdversary(samples=6, seed=9).maximise(ring12, largest_id_algorithm)
        assert a.assignment == b.assignment and a.value == b.value

    def test_more_samples_never_hurt(self, ring12, largest_id_algorithm):
        few = RandomSearchAdversary(samples=2, seed=3).maximise(ring12, largest_id_algorithm)
        many = RandomSearchAdversary(samples=20, seed=3).maximise(ring12, largest_id_algorithm)
        assert many.value >= few.value


def _local_search(restarts, swaps_per_step, max_steps, seed):
    query = Query(restarts=restarts, swaps_per_step=swaps_per_step, max_steps=max_steps)
    return make_adversary("local-search", query, seed=seed)


class TestLocalSearchAdversary:
    def test_beats_or_matches_its_own_starting_points(self, ring12, largest_id_algorithm):
        random_best = RandomSearchAdversary(samples=4, seed=5).maximise(
            ring12, largest_id_algorithm, objective="average"
        )
        local_best = _local_search(2, 8, 10, seed=5).maximise(
            ring12, largest_id_algorithm, objective="average"
        )
        assert local_best.value >= random_best.value * 0.9

    def test_reports_evaluation_count(self, ring12, largest_id_algorithm):
        result = _local_search(1, 4, 2, seed=2).maximise(ring12, largest_id_algorithm)
        # A step's 4 sampled swaps plus the re-examination of the one committed.
        assert result.evaluations >= 5


class TestRotationAdversary:
    def test_tries_every_rotation_of_the_base(self, largest_id_algorithm):
        graph = cycle_graph(8)
        result = RotationAdversary(identity_assignment(8)).maximise(
            graph, largest_id_algorithm, objective="average"
        )
        assert result.evaluations == 8
        # Rotating a cyclically-symmetric pattern cannot change the average.
        baseline = run_ball_algorithm(graph, identity_assignment(8), largest_id_algorithm)
        assert result.value == pytest.approx(baseline.average_radius)

    def test_base_size_must_match_graph(self, largest_id_algorithm):
        with pytest.raises(ConfigurationError):
            RotationAdversary(identity_assignment(5)).maximise(cycle_graph(8), largest_id_algorithm)


class TestCandidatesSkipTheRowCheck:
    """Candidates valid by construction reach the kernel without its per-row check."""

    def test_exhaustive_answers_the_same_document_without_normalize_rows(self, monkeypatch):
        from repro.api.session import Session
        from repro.kernel.compile import CompiledInstance

        query = Query(
            mode="worst-case", topologies="cycle", sizes=8, adversaries="exhaustive",
            measure="average",
        )
        expected = Session().run(query).as_dict()

        def refuse(self, rows):
            raise AssertionError("a candidate row was re-checked")

        monkeypatch.setattr(CompiledInstance, "normalize_rows", refuse)
        answered = Session().run(query).as_dict()
        for document in (expected, answered):
            document.pop("timing")
            for row in document["rows"]:
                row.pop("wall_time_s")
        assert answered == expected

    def test_a_rotation_base_past_int64_is_refused_on_numpy(self, largest_id_algorithm, monkeypatch):
        import repro.kernel.backend as kernel_backend
        from repro.errors import IdentifierError

        if not kernel_backend.numpy_available():
            pytest.skip("numpy backend not installed")
        monkeypatch.setattr(kernel_backend, "_default_backend", "numpy")
        base = IdentifierAssignment((2**63, 1, 2, 3, 4, 5))
        with pytest.raises(IdentifierError, match="int64 range"):
            RotationAdversary(base).maximise(cycle_graph(6), largest_id_algorithm)


class TestTraceObjective:
    def test_unknown_objective_raises(self, ring12, ring12_random_ids, largest_id_algorithm):
        trace = run_ball_algorithm(ring12, ring12_random_ids, largest_id_algorithm)
        with pytest.raises(AnalysisError):
            trace_objective(trace, "mode")


class TestEagerObjectiveValidation:
    def _exploding_algorithm(self):
        from repro.core.algorithm import FunctionBallAlgorithm

        def boom(ball):
            raise AssertionError("simulation must not start for a bad objective")

        return FunctionBallAlgorithm(boom, name="boom")

    @pytest.mark.parametrize(
        "adversary",
        [
            ExhaustiveAdversary(),
            RandomSearchAdversary(samples=4, seed=0),
            _local_search(1, 2, 2, seed=0),
            RotationAdversary(),
        ],
        ids=["exhaustive", "random-search", "local-search", "rotation"],
    )
    def test_invalid_objective_rejected_before_any_simulation(self, adversary):
        # The exploding algorithm proves no ball is ever simulated: the
        # objective is rejected at maximise() entry, not mid-search.
        with pytest.raises(AnalysisError, match="unknown objective"):
            adversary.maximise(cycle_graph(6), self._exploding_algorithm(), objective="median")

    def test_validate_objective_accepts_all_known_objectives(self):
        from repro.core.adversary import OBJECTIVES, validate_objective

        for objective in OBJECTIVES:
            validate_objective(objective)


class TestCacheStatsReporting:
    def test_searches_report_their_decision_cache_stats(self, largest_id_algorithm):
        result = RandomSearchAdversary(samples=6, seed=4).maximise(
            cycle_graph(12), largest_id_algorithm
        )
        assert result.cache_stats is not None
        assert result.cache_stats.lookups > 0
        assert 0.0 <= result.cache_stats.hit_rate <= 1.0
