"""Tests for the frontier runner (session behaviour and edge cases).

Trace equivalence against the legacy runner is covered exhaustively by
``tests/property/test_property_engine.py``; this module tests the session
semantics: validation, caps, cache interplay and error parity.
"""

import pytest

from repro.algorithms.largest_id import LargestIdAlgorithm
from repro.core.algorithm import FunctionBallAlgorithm
from repro.engine.cache import DecisionCache
from repro.engine.frontier import FrontierRunner, center_plan
from repro.errors import AlgorithmError, TopologyError
from repro.model.graph import Graph
from repro.model.identifiers import identity_assignment, random_assignment
from repro.topology.cycle import cycle_graph


def radius_k_algorithm(k):
    return FunctionBallAlgorithm(
        lambda ball: "done" if ball.radius >= k else None, name=f"radius-{k}"
    )


class TestValidation:
    def test_disconnected_graph_rejected_at_session_construction(self):
        with pytest.raises(TopologyError, match="connected"):
            FrontierRunner(Graph([(), ()]), radius_k_algorithm(0))

    def test_unsupported_graph_rejected(self):
        picky = radius_k_algorithm(0)
        picky.supports_graph = lambda graph: False
        with pytest.raises(TopologyError, match="does not support"):
            FrontierRunner(cycle_graph(5), picky)

    def test_identifier_mismatch_rejected_per_run(self):
        runner = FrontierRunner(cycle_graph(6), radius_k_algorithm(0))
        with pytest.raises(TopologyError, match="covers 4 positions"):
            runner.run(identity_assignment(4))

    def test_foreign_cache_rejected(self):
        with pytest.raises(AlgorithmError, match="different algorithm"):
            FrontierRunner(
                cycle_graph(5),
                LargestIdAlgorithm(),
                cache=DecisionCache(LargestIdAlgorithm()),
            )

    def test_cache_cannot_be_shared_across_sessions(self):
        # Runner keys embed session-interned structural ids, so a cache
        # reused by a second session would silently serve wrong decisions
        # (e.g. a cycle-3 ball hitting a cycle-6 entry).
        algorithm = LargestIdAlgorithm()
        cache = DecisionCache(algorithm)
        FrontierRunner(cycle_graph(6), algorithm, cache=cache)
        with pytest.raises(AlgorithmError, match="another engine session"):
            FrontierRunner(cycle_graph(3), algorithm, cache=cache)


class TestExecution:
    def test_records_first_deciding_radius(self):
        runner = FrontierRunner(cycle_graph(12), radius_k_algorithm(3))
        trace = runner.run(random_assignment(12, seed=1))
        assert set(trace.radii().values()) == {3}

    def test_refusing_to_decide_names_the_first_failing_position(self):
        never = FunctionBallAlgorithm(lambda ball: None, name="never")
        with pytest.raises(
            AlgorithmError, match="refused to output at position 0 even at radius 4"
        ):
            FrontierRunner(cycle_graph(6), never).run(identity_assignment(6))

    def test_max_radius_cap_is_honoured(self):
        runner = FrontierRunner(cycle_graph(12), radius_k_algorithm(10), max_radius=4)
        with pytest.raises(AlgorithmError, match="even at radius 4"):
            runner.run(identity_assignment(12))

    def test_session_reuse_across_assignments(self):
        graph = cycle_graph(10)
        algorithm = LargestIdAlgorithm()
        runner = FrontierRunner(graph, algorithm, cache=DecisionCache(algorithm))
        for seed in range(4):
            ids = random_assignment(10, seed=seed)
            trace = runner.run(ids)
            # The carrier of the largest identifier always sees everything.
            assert trace.radii()[ids.argmax_position()] == 5
        assert runner.cache.stats.hits > 0

    def test_full_graph_hint_matches_degree_criterion(self):
        graph = cycle_graph(6)
        seen = []
        probe = FunctionBallAlgorithm(
            lambda ball: seen.append((ball.radius, ball.covers_whole_graph()))
            or ("done" if ball.radius >= 4 else None),
            name="probe",
        )
        FrontierRunner(graph, probe).run(identity_assignment(6))
        assert seen
        for radius, covers in seen:
            assert covers == (radius >= 3)  # eccentricity of a 6-cycle node

    def test_plans_grow_only_as_deep_as_each_node_reads(self):
        # Largest-ID on a cycle: a typical node stops after O(log n) rounds,
        # so its plan must not be built out to the eccentricity n / 2.
        graph = cycle_graph(256)
        radii = FrontierRunner(graph, LargestIdAlgorithm()).run(
            random_assignment(256, seed=7)
        ).radii()
        for position in graph.positions():
            plan = center_plan(graph, position)
            assert len(plan.member_counts) - 1 <= radii[position]


class TestStructuralKeys:
    def test_vertex_transitive_centres_share_structural_keys(self):
        graph = cycle_graph(8)
        algorithm = LargestIdAlgorithm()
        runner = FrontierRunner(graph, algorithm, cache=DecisionCache(algorithm))
        ids_a = runner._struct_id(runner._plan(1), 2)
        ids_b = runner._struct_id(runner._plan(5), 2)
        assert ids_a == ids_b

    def test_distinct_radii_get_distinct_keys_even_when_saturated(self):
        graph = cycle_graph(5)
        algorithm = LargestIdAlgorithm()
        runner = FrontierRunner(graph, algorithm, cache=DecisionCache(algorithm))
        plan = runner._plan(0)
        keys = [runner._struct_id(plan, radius) for radius in (2, 3, 4)]
        assert plan.eccentricity == 2
        assert len(set(keys)) == 3
