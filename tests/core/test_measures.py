"""Tests for the complexity measures."""

import pytest

from repro.core.adversary import ExhaustiveAdversary
from repro.core.measures import (
    AVERAGE_MEASURE,
    CLASSIC_MEASURE,
    MEASURES,
    SUM_MEASURE,
    ComplexityReport,
    average_complexity,
    classic_complexity,
    exact_measure_distribution,
    expected_measures_over_random_ids,
    get_measure,
    measure_objective,
    sampled_measure_distribution,
)
from repro.api.session import Session
from repro.core.runner import run_ball_algorithm
from repro.errors import AnalysisError
from repro.model.identifiers import IdentifierAssignment, random_assignment
from repro.topology.cycle import cycle_graph


class TestSessionReport:
    def test_report_contains_both_measures(self, ring12, ring12_random_ids, largest_id_algorithm):
        report = Session().report(ring12, ring12_random_ids, largest_id_algorithm)
        assert isinstance(report, ComplexityReport)
        assert report.n == 12
        assert report.max_radius == 6  # the maximum's eccentricity on C_12
        assert 0 < report.average_radius < report.max_radius
        assert report.sum_radius == pytest.approx(report.average_radius * 12)
        assert report.graph_name == "cycle-12"
        assert report.algorithm_name == "largest-id"


class TestAggregates:
    def test_classic_and_average_take_the_worst_run(
        self, ring12, largest_id_algorithm
    ):
        traces = [
            run_ball_algorithm(ring12, random_assignment(12, seed=s), largest_id_algorithm)
            for s in range(4)
        ]
        assert classic_complexity(traces) == max(t.max_radius for t in traces)
        assert average_complexity(traces) == max(t.average_radius for t in traces)

    def test_empty_iterables_are_rejected(self):
        with pytest.raises(AnalysisError):
            classic_complexity([])
        with pytest.raises(AnalysisError):
            average_complexity([])


class TestAdversaryWorstCase:
    def test_exhaustive_worst_case_on_a_tiny_cycle(self, largest_id_algorithm):
        graph = cycle_graph(5)
        result = ExhaustiveAdversary().maximise(
            graph, largest_id_algorithm, objective="average"
        )
        assert result.exact
        # Re-run the winning assignment and confirm the reported value.
        trace = run_ball_algorithm(graph, result.assignment, largest_id_algorithm)
        assert trace.average_radius == pytest.approx(result.value)


class TestExpectedMeasures:
    def test_expectation_is_the_mean_over_assignments(self, ring12, largest_id_algorithm):
        assignments = [random_assignment(12, seed=s) for s in range(5)]
        result = expected_measures_over_random_ids(ring12, largest_id_algorithm, assignments)
        expected_avg, expected_max = result.average.mean, result.maximum.mean
        traces = [run_ball_algorithm(ring12, ids, largest_id_algorithm) for ids in assignments]
        assert expected_avg == pytest.approx(sum(t.average_radius for t in traces) / 5)
        assert expected_max == pytest.approx(sum(t.max_radius for t in traces) / 5)

    def test_requires_at_least_one_assignment(self, ring12, largest_id_algorithm):
        with pytest.raises(AnalysisError):
            expected_measures_over_random_ids(ring12, largest_id_algorithm, [])


class TestMeasureAPI:
    def test_registry_holds_the_three_measures(self):
        assert set(MEASURES) == {"classic", "average", "sum"}
        assert MEASURES["classic"] is CLASSIC_MEASURE
        assert CLASSIC_MEASURE.objective == "max"
        assert AVERAGE_MEASURE.objective == "average"
        assert SUM_MEASURE.objective == "sum"

    def test_get_measure_resolves_names_and_objectives(self):
        assert get_measure("classic") is CLASSIC_MEASURE
        assert get_measure("max") is CLASSIC_MEASURE
        assert get_measure("average") is AVERAGE_MEASURE
        with pytest.raises(AnalysisError, match="unknown measure"):
            get_measure("median")

    def test_of_trace_and_worst_over_traces(self, ring12, largest_id_algorithm):
        traces = [
            run_ball_algorithm(ring12, random_assignment(12, seed=s), largest_id_algorithm)
            for s in range(3)
        ]
        for trace in traces:
            assert CLASSIC_MEASURE.of_trace(trace) == trace.max_radius
            assert AVERAGE_MEASURE.of_trace(trace) == trace.average_radius
            assert SUM_MEASURE.of_trace(trace) == trace.sum_radius
        assert CLASSIC_MEASURE.worst_over_traces(traces) == classic_complexity(traces)
        assert AVERAGE_MEASURE.worst_over_traces(traces) == average_complexity(traces)

    def test_marginal_slices_a_round_distribution(self, largest_id_algorithm):
        result = exact_measure_distribution(cycle_graph(5), largest_id_algorithm)
        distribution = result.distribution
        assert (
            CLASSIC_MEASURE.marginal(distribution).weights()
            == distribution.max_distribution().weights()
        )
        assert (
            AVERAGE_MEASURE.marginal(distribution).weights()
            == distribution.average_distribution().weights()
        )
        assert (
            SUM_MEASURE.marginal(distribution).weights()
            == distribution.sum_distribution().weights()
        )


class TestComplexityReportJson:
    def test_round_trip(self, ring12, ring12_random_ids, largest_id_algorithm):
        from repro.api.session import Session

        report = Session().report(ring12, ring12_random_ids, largest_id_algorithm)
        assert ComplexityReport.from_json(report.to_json()) == report

    def test_document_is_tagged_and_versioned(self):
        import json

        report = ComplexityReport("cycle-4", "largest-id", 4, 2, 1.25, 5)
        document = json.loads(report.to_json())
        assert document["kind"] == "complexity-report"
        assert document["version"] == 1

    def test_foreign_documents_rejected(self):
        with pytest.raises(AnalysisError, match="not a complexity-report"):
            ComplexityReport.from_json('{"kind": "other"}')


class TestDistributionFacades:
    def test_exact_facade_reaches_the_dist_layer(self, largest_id_algorithm):
        result = exact_measure_distribution(cycle_graph(5), largest_id_algorithm)
        assert result.distribution.total_weight == 120
        assert result.certificate.exact

    def test_sampled_facade_reaches_the_dist_layer(self, largest_id_algorithm):
        result = sampled_measure_distribution(
            cycle_graph(8), largest_id_algorithm, samples=8, seed=1
        )
        assert result.distribution.total_weight == 8
        assert result.average.std_error >= 0.0


class TestSeededExpectedMeasures:
    def test_seed_contract_without_explicit_assignments(self, largest_id_algorithm):
        graph = cycle_graph(10)
        first = expected_measures_over_random_ids(
            graph, largest_id_algorithm, samples=12, seed=4
        )
        second = expected_measures_over_random_ids(
            graph, largest_id_algorithm, samples=12, seed=4
        )
        assert first.average == second.average
        assert first.maximum == second.maximum

    def test_reports_standard_errors(self, ring12, largest_id_algorithm):
        assignments = [random_assignment(12, seed=s) for s in range(5)]
        result = expected_measures_over_random_ids(
            ring12, largest_id_algorithm, assignments
        )
        assert result.average.count == 5
        assert result.average.std_error >= 0.0
        assert result.average.ci95_low <= result.average.mean <= result.average.ci95_high


class TestMeasureObjective:
    def test_known_objectives(self, ring12, ring12_random_ids, largest_id_algorithm):
        trace = run_ball_algorithm(ring12, ring12_random_ids, largest_id_algorithm)
        assert measure_objective(trace, "average") == trace.average_radius
        assert measure_objective(trace, "max") == trace.max_radius
        assert measure_objective(trace, "sum") == trace.sum_radius

    def test_unknown_objective_rejected(self, ring12, ring12_random_ids, largest_id_algorithm):
        trace = run_ball_algorithm(ring12, ring12_random_ids, largest_id_algorithm)
        with pytest.raises(AnalysisError, match="unknown objective"):
            measure_objective(trace, "median")
