"""Tests for the strategy portfolio and its determinism guarantees."""

import pytest

from repro.algorithms.largest_id import LargestIdAlgorithm
from repro.core.adversary import ExhaustiveAdversary
from repro.core.algorithm import FunctionBallAlgorithm
from repro.core.runner import run_ball_algorithm
from repro.engine.campaign import make_ball_algorithm
from repro.errors import ConfigurationError
from repro.kernel.compile import compile_instance
from repro.search.adversaries import PortfolioAdversary
from repro.search.portfolio import (
    PortfolioSearch,
    StrategySpec,
    default_portfolio,
)
from repro.topology.cycle import cycle_graph


class TestStrategySpec:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(ConfigurationError, match="unknown strategy"):
            StrategySpec.make("gradient-descent")

    def test_default_portfolio_covers_all_families(self):
        names = {spec.name for spec in default_portfolio()}
        assert names == {"hill-climb", "annealing", "tabu", "random-probe"}


class TestPortfolioSearch:
    def test_deterministic_across_worker_counts(self, largest_id_algorithm):
        graph = cycle_graph(10)
        serial = PortfolioAdversary(seed=7, workers=1).maximise(
            graph, largest_id_algorithm
        )
        parallel = PortfolioAdversary(seed=7, workers=3).maximise(
            graph, largest_id_algorithm
        )
        assert serial.value == parallel.value
        assert serial.assignment == parallel.assignment

    def test_finds_the_optimum_on_a_small_cycle(self, largest_id_algorithm):
        graph = cycle_graph(7)
        exact = ExhaustiveAdversary().maximise(graph, largest_id_algorithm)
        found = PortfolioAdversary(seed=0).maximise(graph, largest_id_algorithm)
        assert not found.exact
        assert found.value == pytest.approx(exact.value)

    def test_witness_reproduces_the_value(self, ring12, largest_id_algorithm):
        result = PortfolioAdversary(seed=2).maximise(ring12, largest_id_algorithm)
        trace = run_ball_algorithm(ring12, result.assignment, largest_id_algorithm)
        assert trace.average_radius == pytest.approx(result.value)

    def test_certificate_reports_every_strategy(self, ring12, largest_id_algorithm):
        result = PortfolioAdversary(seed=1).maximise(ring12, largest_id_algorithm)
        names = [row["strategy"] for row in result.certificate.rows]
        assert names == ["hill-climb", "annealing", "tabu", "random-probe"]
        assert result.evaluations == sum(
            row["evaluations"] for row in result.certificate.rows
        )
        # The best strategy's value is exactly the reported value.
        assert result.value == max(row["value"] for row in result.certificate.rows)

    def test_custom_portfolio(self, ring12, largest_id_algorithm):
        search = PortfolioSearch(
            strategies=[StrategySpec.make("hill-climb", max_steps=4, swaps_per_step=4)],
            seed=5,
        )
        best, certificate = search.run(ring12, largest_id_algorithm, "average")
        assert best.name == "hill-climb"
        assert len(certificate.rows) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_compiles_the_instance_once(self, workers, monkeypatch):
        # Every member scores on the one instance the portfolio compiles;
        # pooled members get a pickled copy and compile nothing either.
        import repro.search.portfolio as portfolio

        compiled = []

        def counting(graph, algorithm):
            compiled.append(graph.n)
            return compile_instance(graph, algorithm)

        monkeypatch.setattr(portfolio, "compile_instance", counting)
        graph = cycle_graph(16)
        algorithm = make_ball_algorithm("greedy-mis", graph.n)
        result = PortfolioAdversary(seed=4, workers=workers).maximise(graph, algorithm)
        assert compiled == [16]
        serial = PortfolioAdversary(seed=4).maximise(graph, algorithm)
        assert (result.value, result.assignment) == (serial.value, serial.assignment)

    def test_empty_portfolio_rejected(self):
        with pytest.raises(ConfigurationError):
            PortfolioSearch(strategies=[])


def test_portfolio_over_a_non_vectorised_algorithm():
    # A FunctionBallAlgorithm has no vectorised rule: the kernel scores its
    # swaps with the decide-backed RunnerTableRule, which must walk the very
    # trajectories the vectorised largest-ID rule does.
    graph = cycle_graph(8)
    plain = FunctionBallAlgorithm(LargestIdAlgorithm().decide, name="plain-largest-id")
    assert compile_instance(graph, plain).rule.name == "runner-table"
    found = PortfolioAdversary(seed=3).maximise(graph, plain)
    reference = PortfolioAdversary(seed=3).maximise(graph, LargestIdAlgorithm())
    assert found.value == reference.value
    assert found.assignment == reference.assignment
    assert found.certificate == reference.certificate
    assert found.trace.radii() == reference.trace.radii()
