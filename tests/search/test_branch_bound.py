"""Tests for the exact symmetry-pruned searches and their certificates."""

import math

import pytest

from repro.algorithms.full_gather import BallSimulationOfRounds
from repro.algorithms.cole_vishkin import ColeVishkinRing
from repro.algorithms.greedy_coloring import GreedyColoringByID
from repro.core.adversary import ExhaustiveAdversary
from repro.core.algorithm import FunctionBallAlgorithm
from repro.api.query import Query
from repro.core.measures import exact_worst_case
from repro.core.runner import run_ball_algorithm
from repro.engine.campaign import make_adversary
from repro.errors import ConfigurationError, TopologyError
from repro.kernel.compile import DEFAULT_BATCH_ROWS
from repro.search.adversaries import PrunedExhaustiveAdversary
from repro.model.graph import Graph
from repro.search import branch_bound
from repro.search.branch_bound import BranchAndBoundSearch
from repro.topology.complete import complete_graph
from repro.topology.cycle import cycle_graph
from repro.topology.path import path_graph


class TestPrunedExhaustive:
    def test_matches_legacy_on_the_6_cycle(self, largest_id_algorithm):
        graph = cycle_graph(6)
        legacy = ExhaustiveAdversary().maximise(graph, largest_id_algorithm, "sum")
        pruned = PrunedExhaustiveAdversary().maximise(graph, largest_id_algorithm, "sum")
        assert pruned.exact
        assert pruned.value == legacy.value
        # Dihedral group of order 12: 720 / 12 = 60 canonical classes.
        assert pruned.certificate.canonical_leaves == 60
        assert pruned.certificate.group_order == 12

    def test_witness_reproduces_the_value(self, largest_id_algorithm):
        graph = cycle_graph(6)
        result = PrunedExhaustiveAdversary().maximise(graph, largest_id_algorithm)
        trace = run_ball_algorithm(graph, result.assignment, largest_id_algorithm)
        assert trace.average_radius == pytest.approx(result.value)

    def test_complete_graph_collapses_to_one_class(self, largest_id_algorithm):
        result = PrunedExhaustiveAdversary().maximise(
            complete_graph(10), largest_id_algorithm, "average"
        )
        assert result.exact
        assert result.certificate.canonical_leaves == 1
        assert result.certificate.group_order == math.factorial(10)
        assert result.value == 1.0  # everyone sees everything at radius 1

    def test_port_using_algorithm_gets_the_port_preserving_group(self):
        algorithm = BallSimulationOfRounds(ColeVishkinRing(6))
        result = PrunedExhaustiveAdversary().maximise(cycle_graph(6), algorithm)
        # Rotations only: order 6, not the dihedral 12.
        assert result.certificate.group_order == 6
        assert result.certificate.group_respects_ports

    def test_respects_max_nodes(self, largest_id_algorithm):
        with pytest.raises(ConfigurationError, match="limited"):
            PrunedExhaustiveAdversary(max_nodes=5).maximise(
                cycle_graph(8), largest_id_algorithm
            )

    def test_respects_the_class_budget(self, largest_id_algorithm):
        # The 12-path has a symmetry group of order 2: ~12!/2 canonical
        # classes, hopeless for enumeration, and rejected eagerly.
        with pytest.raises(ConfigurationError, match="canonical"):
            PrunedExhaustiveAdversary().maximise(
                path_graph(12), largest_id_algorithm
            )
        # The 12-node complete graph has more nodes but a single class.
        result = PrunedExhaustiveAdversary().maximise(
            complete_graph(12), largest_id_algorithm
        )
        assert result.exact and result.certificate.canonical_leaves == 1


def _branch_and_bound():
    # The registry name of the one exact search.
    return make_adversary("branch-and-bound", Query())


class TestBranchAndBound:
    @pytest.mark.parametrize("objective", ["average", "max", "sum"])
    def test_matches_legacy_on_cycles_and_paths(self, largest_id_algorithm, objective):
        for graph in (cycle_graph(5), path_graph(6)):
            legacy = ExhaustiveAdversary().maximise(
                graph, largest_id_algorithm, objective
            )
            bounded = _branch_and_bound().maximise(
                graph, largest_id_algorithm, objective
            )
            assert bounded.exact
            assert bounded.value == legacy.value

    def test_exact_beyond_the_legacy_limit(self, largest_id_algorithm):
        # n = 12 > 9: a space of 12! assignments, collapsed to one canonical
        # class by the complete graph's full symmetry.  (The cycle version of
        # this claim, cross-checked against the paper's recurrence, lives in
        # benchmarks/test_bench_search.py — it takes seconds, not millis.)
        result = exact_worst_case(complete_graph(12), largest_id_algorithm, "sum")
        assert result.exact
        assert result.value == 12.0  # every node outputs at radius 1
        assert result.certificate.space_size == math.factorial(12)
        assert result.certificate.group_order == math.factorial(12)

    def test_search_outcome_certificate_counters_are_consistent(
        self, largest_id_algorithm
    ):
        search = BranchAndBoundSearch(cycle_graph(6), largest_id_algorithm, "sum")
        outcome = search.run()
        certificate = outcome.certificate
        assert certificate.exact
        assert certificate.nodes_expanded > 0
        assert certificate.canonical_leaves > 0
        assert 0 < certificate.group_order <= 12

    def test_greedy_coloring_agrees_with_legacy(self):
        algorithm = GreedyColoringByID()
        graph = path_graph(5)
        legacy = ExhaustiveAdversary().maximise(graph, algorithm, "average")
        bounded = _branch_and_bound().maximise(graph, algorithm, "average")
        assert bounded.value == legacy.value


def _opaque_greedy_coloring():
    # A bare FunctionBallAlgorithm offers no compile_kernel_rule, so its
    # cohorts run through the decide-backed runner-table rule.
    return FunctionBallAlgorithm(
        GreedyColoringByID().decide,
        name="greedy-coloring-opaque",
        problem="coloring",
        order_invariant=True,
        uses_ports=False,
    )


def _run_collecting(search):
    """``(outcome, [(ids, radii), ...])``: every leaf the blocks handed over."""
    leaves = []

    def collect(ids, radii):
        assert len(ids) == len(radii)
        for ids_row, radii_row in zip(ids, radii):
            leaves.append((tuple(map(int, ids_row)), tuple(map(int, radii_row))))

    return search.run(on_block=collect), leaves


class TestCohortEnumeration:
    """Every exact search evaluates its canonical leaves in kernel blocks."""

    @pytest.mark.parametrize("objective", ["sum", "max", "average"])
    def test_runner_table_and_cone_rules_agree_leaf_by_leaf(self, objective, monkeypatch):
        # path-7: 2520 canonical leaves in blocks of 256, so full blocks and
        # a partial last block are both evaluated.
        monkeypatch.setattr(branch_bound, "LEAF_BLOCK_ROWS", DEFAULT_BATCH_ROWS)
        graph = path_graph(7)
        streams = []
        outcomes = []
        rules = []
        for algorithm in (_opaque_greedy_coloring(), GreedyColoringByID()):
            search = BranchAndBoundSearch(graph, algorithm, objective)
            rules.append(search.kernel.describe()["rule"])
            outcome, leaves = _run_collecting(search)
            outcomes.append(outcome)
            streams.append(leaves)
        assert rules == ["runner-table", "greedy-cone-coloring"]
        opaque, native = outcomes
        assert len(streams[0]) == 2520 > DEFAULT_BATCH_ROWS
        assert 2520 % DEFAULT_BATCH_ROWS != 0
        assert streams[0] == streams[1]
        assert opaque.value == native.value
        assert opaque.identifiers == native.identifiers
        assert opaque.certificate.as_dict() == native.certificate.as_dict()

    def test_the_first_optimal_leaf_is_the_witness(self, largest_id_algorithm):
        search = BranchAndBoundSearch(cycle_graph(6), largest_id_algorithm, "sum")
        outcome, leaves = _run_collecting(search)
        totals = [(ids, sum(radii)) for ids, radii in leaves]
        best = max(total for _, total in totals)
        # Several canonical leaves tie at the optimum; the first one wins.
        optimal = [ids for ids, total in totals if total == best]
        assert len(optimal) > 1
        assert outcome.identifiers == optimal[0]
        assert outcome.value == best

    @pytest.mark.parametrize("objective", ["sum", "max"])
    def test_the_first_optimal_leaf_wins_across_blocks(
        self, largest_id_algorithm, objective, monkeypatch
    ):
        # Blocks of 7 rows: the optimum ties across many block boundaries,
        # and a later block's equal score must not replace the witness.
        monkeypatch.setattr(branch_bound, "LEAF_BLOCK_ROWS", 7)
        search = BranchAndBoundSearch(path_graph(6), largest_id_algorithm, objective)
        outcome, leaves = _run_collecting(search)
        score = max if objective == "max" else sum
        scores = [score(radii) for _, radii in leaves]
        best = max(scores)
        assert len({index // 7 for index, value in enumerate(scores) if value == best}) > 1
        assert outcome.identifiers == leaves[scores.index(best)][0]

    def test_search_builds_no_frontier_plan(self, largest_id_algorithm, monkeypatch):
        from repro.engine import frontier

        built = []
        original = frontier._CenterPlan.__init__
        monkeypatch.setattr(
            frontier._CenterPlan,
            "__init__",
            lambda plan, center, csr: built.append(center) or original(plan, center, csr),
        )
        BranchAndBoundSearch(cycle_graph(7), largest_id_algorithm, "max").run()
        assert built == []

    def test_compile_validates_the_instance(self, largest_id_algorithm):
        disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(TopologyError, match="connected"):
            BranchAndBoundSearch(disconnected, largest_id_algorithm)
        with pytest.raises(TopologyError, match="does not support"):
            BranchAndBoundSearch(path_graph(6), BallSimulationOfRounds(ColeVishkinRing(6)))
