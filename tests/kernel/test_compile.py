"""Tests for CompiledInstance structure, validation and bookkeeping."""

import math

import pytest

from repro.algorithms.greedy_coloring import GreedyColoringByID
from repro.algorithms.largest_id import LargestIdAlgorithm
from repro.core.algorithm import FunctionBallAlgorithm
from repro.errors import IdentifierError, TopologyError
from repro.kernel import BatchRequest, compile_instance, simulate_batch, simulate_many
from repro.model.graph import Graph
from repro.model.identifiers import random_assignment
from repro.topology.cycle import cycle_graph
from repro.topology.path import path_graph


class TestCompiledStructure:
    def test_csr_adjacency_matches_the_graph(self):
        graph = path_graph(5)
        instance = compile_instance(graph, LargestIdAlgorithm())
        for v in graph.positions():
            start, end = instance.indptr[v], instance.indptr[v + 1]
            assert list(instance.indices[start:end]) == list(graph.neighbors(v))
            assert end - start == graph.degree(v)
        assert instance.indptr[-1] == 2 * graph.m

    @pytest.mark.parametrize(
        "algorithm,topology",
        [
            ("largest-id", "cycle"),
            ("largest-id", "path"),
            ("cole-vishkin", "cycle"),
            ("cole-vishkin-ball", "cycle"),
            ("greedy-coloring", "cycle"),
            ("greedy-coloring", "random-tree"),
            ("greedy-mis", "path"),
            ("greedy-mis", "random-tree"),
            ("ring-coloring-via-mis", "cycle"),
        ],
    )
    def test_compile_and_batches_build_no_plans(self, algorithm, topology, monkeypatch):
        from repro.engine import frontier
        from repro.engine.campaign import build_topology, make_ball_algorithm

        built = []
        original = frontier._CenterPlan.__init__
        monkeypatch.setattr(
            frontier._CenterPlan,
            "__init__",
            lambda plan, center, csr: built.append(center) or original(plan, center, csr),
        )
        graph = build_topology(topology, 6, seed=0)
        instance = compile_instance(graph, make_ball_algorithm(algorithm, 6))
        rows = [random_assignment(6, seed=seed).identifiers() for seed in range(4)]
        simulate_batch(instance, rows)
        simulate_many([BatchRequest(instance, rows)])
        # No frontier plan: the kernel reads only the graph's CSR.
        assert built == []

    def test_rule_selection(self):
        graph = cycle_graph(6)
        vectorized = compile_instance(graph, LargestIdAlgorithm())
        cone = compile_instance(graph, GreedyColoringByID())
        # A bare FunctionBallAlgorithm offers no compile_kernel_rule, so it
        # exercises the decide-backed fallback selection.
        fallback = compile_instance(
            graph,
            FunctionBallAlgorithm(
                GreedyColoringByID().decide,
                name="greedy-coloring-opaque",
                problem="coloring",
                order_invariant=True,
                uses_ports=False,
            ),
        )
        assert vectorized.vectorized
        assert vectorized.describe()["rule"] == "ring-scan"
        assert cone.vectorized
        assert cone.describe()["rule"] == "greedy-cone-coloring"
        assert not fallback.vectorized
        assert fallback.describe()["rule"] == "runner-table"

    def test_stats_count_batches_and_rows(self):
        instance = compile_instance(cycle_graph(5), LargestIdAlgorithm())
        rows = [random_assignment(5, seed=seed).identifiers() for seed in range(7)]
        simulate_batch(instance, rows[:4])
        simulate_batch(instance, rows[4:])
        assert instance.stats.batches == 2
        assert instance.stats.rows == 7
        assert instance.stats.as_dict() == {"batches": 2, "rows": 7}


class TestValidation:
    def test_rejects_disconnected_graphs(self):
        graph = Graph.from_edges(4, [(0, 1), (2, 3)], name="two-edges")
        with pytest.raises(TopologyError, match="connected"):
            compile_instance(graph, LargestIdAlgorithm())

    def test_rejects_unsupported_graphs(self):
        from repro.algorithms.cole_vishkin import ColeVishkinRing
        from repro.algorithms.full_gather import BallSimulationOfRounds

        algorithm = BallSimulationOfRounds(ColeVishkinRing(5))
        with pytest.raises(TopologyError, match="does not support"):
            compile_instance(path_graph(5), algorithm)

    def test_rejects_rows_of_the_wrong_width(self):
        instance = compile_instance(cycle_graph(5), LargestIdAlgorithm())
        with pytest.raises(TopologyError, match="covers 4 positions"):
            simulate_batch(instance, [(0, 1, 2, 3)])

    def test_rejects_non_injective_rows(self):
        instance = compile_instance(cycle_graph(4), LargestIdAlgorithm())
        with pytest.raises(IdentifierError, match="distinct"):
            simulate_batch(instance, [(0, 1, 1, 2)])

    def test_numpy_backend_rejects_identifiers_beyond_int64(self):
        from repro.kernel import numpy_available

        huge = (2**63, 1, 2, 3, 4)
        graph = cycle_graph(5)
        python_instance = compile_instance(graph, LargestIdAlgorithm(), backend="python")
        # The stdlib backend has no identifier-size limit.
        assert simulate_batch(python_instance, [huge])[0][0] == graph.eccentricity(0)
        if numpy_available():
            numpy_instance = compile_instance(
                cycle_graph(5), LargestIdAlgorithm(), backend="numpy"
            )
            with pytest.raises(IdentifierError, match="int64"):
                simulate_batch(numpy_instance, [huge])

    def test_explicit_sampling_assignments_beyond_int64_degrade_to_stdlib(self):
        # The pre-kernel runner path accepted arbitrarily large identifiers;
        # sampling must keep doing so by degrading off the numpy backend.
        from repro.dist.sampling import sample_round_distribution
        from repro.model.identifiers import IdentifierAssignment

        huge = [IdentifierAssignment(tuple(2**63 + i for i in range(5)))]
        result = sample_round_distribution(
            cycle_graph(5), LargestIdAlgorithm(), assignments=huge
        )
        small = sample_round_distribution(
            cycle_graph(5),
            LargestIdAlgorithm(),
            assignments=[IdentifierAssignment((0, 1, 2, 3, 4))],
        )
        # Order-invariant algorithm: the ramp gives identical radii.
        assert result.distribution == small.distribution

    def test_explicit_sampling_assignments_of_the_wrong_size_are_rejected(self):
        # The pre-kernel runner path rejected wrong-n assignments; the
        # kernel path must too (regression: pre_validated bypass).
        from repro.dist.sampling import sample_round_distribution
        from repro.model.identifiers import random_assignment as draw

        with pytest.raises(TopologyError, match="covers 8 positions"):
            sample_round_distribution(
                cycle_graph(5),
                LargestIdAlgorithm(),
                assignments=[draw(8, seed=1)],
            )


class TestSimulateBatch:
    def test_known_radii_on_the_directed_ramp(self):
        # Identity identifiers on a cycle: every node sees a larger id at
        # distance 1 except the maximum, which must see the whole ring.
        n = 6
        instance = compile_instance(cycle_graph(n), LargestIdAlgorithm())
        (radii,) = simulate_batch(instance, [tuple(range(n))])
        assert radii[n - 1] == n // 2
        assert all(radius == 1 for radius in radii[:-1])

    def test_row_order_is_preserved(self):
        instance = compile_instance(cycle_graph(6), LargestIdAlgorithm())
        rows = [random_assignment(6, seed=seed).identifiers() for seed in range(5)]
        batched = simulate_batch(instance, rows)
        singly = [simulate_batch(instance, [row])[0] for row in rows]
        assert batched == singly

    def test_empty_matrix_is_a_no_op(self):
        instance = compile_instance(cycle_graph(5), LargestIdAlgorithm())
        assert simulate_batch(instance, []) == []

    def test_all_permutations_average_matches_theory_on_a_small_cycle(self):
        # Cross-check against an independent invariant: averaged over all
        # assignments, the sum of radii of largest-id on the n-cycle equals
        # the known exact expectation from the distribution layer.
        import itertools

        from repro.dist.exact import brute_force_round_distribution

        n = 5
        graph = cycle_graph(n)
        instance = compile_instance(graph, LargestIdAlgorithm())
        rows = list(itertools.permutations(range(n)))
        total = sum(sum(radii) for radii in simulate_batch(instance, rows))
        distribution = brute_force_round_distribution(graph, LargestIdAlgorithm())
        assert total / math.factorial(n) == pytest.approx(
            distribution.sum_distribution().mean()
        )
