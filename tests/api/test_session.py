"""Tests for the Session execution layer and the repro.query front door."""

import math

import pytest

import repro
from repro.api.query import Query
from repro.api.results import strip_volatile
from repro.api.session import Session, default_session, query, reset_default_session
from repro.errors import ConfigurationError


class TestSimulate:
    def test_row_shape_and_measures(self):
        result = Session().simulate(topologies="cycle", sizes=8, seed=1)
        assert result.mode == "simulate"
        row = result.rows[0]
        assert row["graph_n"] == 8
        assert row["certified"] is True
        assert row["classic"] == 4  # floor(n/2) for largest-id on the cycle
        assert math.isclose(row["sum"], row["average"] * 8)
        assert result.measures["classic"] == 4
        assert result.exact is None
        assert result.timing["wall_time_s"] >= 0.0

    def test_grid_expansion_is_ordered(self):
        result = Session().simulate(topologies=("cycle", "path"), sizes=(6, 8))
        coordinates = [(row["topology"], row["n"]) for row in result.rows]
        assert coordinates == [("cycle", 6), ("cycle", 8), ("path", 6), ("path", 8)]

    def test_identifiers_are_recorded_and_reproducible(self):
        session = Session()
        first = session.simulate(topologies="cycle", sizes=8, seed=3)
        second = session.simulate(topologies="cycle", sizes=8, seed=3)
        assert first.rows[0]["identifiers"] == second.rows[0]["identifiers"]

    def test_warm_session_reuses_runner_and_graph(self):
        session = Session()
        session.simulate(topologies="cycle", sizes=8, seed=0)
        graphs_before = len(session._graphs)
        runners_before = len(session._runners)
        result = session.simulate(topologies="cycle", sizes=8, seed=1)
        assert len(session._graphs) == graphs_before
        assert len(session._runners) == runners_before
        # The warm decision cache answers most balls of the repeat query.
        assert result.cache["hit_rate"] > 0.5

    def test_worker_fanout_returns_identical_rows(self):
        base = Query(mode="simulate", topologies=("cycle", "path"), sizes=(6, 8), seed=2)
        serial = Session().simulate(base)
        parallel = Session().simulate(base.with_changes(workers=2))
        assert strip_volatile(serial.rows) == strip_volatile(parallel.rows)


class TestWorstCase:
    def test_exact_search_with_certificate(self):
        result = Session().worst_case(
            topologies="cycle", sizes=7, adversaries="branch-and-bound", measure="average"
        )
        row = result.rows[0]
        assert result.exact is True
        assert row["certificate"]["group_order"] == 14
        assert math.isclose(result.measures["average"], 12 / 7)

    def test_matches_direct_adversary_call(self):
        from repro.search.adversaries import PrunedExhaustiveAdversary
        from repro.topology.cycle import cycle_graph
        from repro.algorithms.largest_id import LargestIdAlgorithm

        direct = PrunedExhaustiveAdversary().maximise(
            cycle_graph(7), LargestIdAlgorithm(), objective="sum"
        )
        result = Session().worst_case(
            topologies="cycle", sizes=7, adversaries="branch-and-bound", measure="sum"
        )
        assert result.rows[0]["value"] == direct.value


class TestSweepAndDistribution:
    def test_sweep_rows_are_grid_ordered(self):
        result = Session().sweep(
            topologies=("cycle", "path"), sizes=6, adversaries=("rotation",), seed=1
        )
        assert [row["topology"] for row in result.rows] == ["cycle", "path"]
        assert all(row["objective"] == "average" for row in result.rows)

    def test_distribution_total_weight_is_n_factorial(self):
        result = Session().distribution(topologies="cycle", sizes=5)
        assert result.rows[0]["total_weight"] == math.factorial(5)
        assert result.exact is True

    def test_distribution_worker_fanout_identical(self):
        base = Query(
            mode="distribution", topologies=("cycle", "path"), sizes=5,
            methods=("exact", "sample"), samples=8, seed=4,
        )
        serial = Session().distribution(base)
        parallel = Session().distribution(base.with_changes(workers=2))
        assert strip_volatile(serial.rows) == strip_volatile(parallel.rows)


class TestDispatchAndCoercion:
    def test_run_dispatches_on_mode(self):
        session = Session()
        assert session.run(Query(mode="simulate", sizes=6)).mode == "simulate"
        assert session.run(Query(mode="distribution", sizes=5)).mode == "distribution"

    def test_mode_methods_reject_a_contradicting_query_mode(self):
        with pytest.raises(ConfigurationError, match="declares mode 'simulate'"):
            Session().distribution(Query(mode="simulate", topologies="cycle", sizes=5))

    def test_kwargs_overlay_an_explicit_query(self):
        base = Query(mode="simulate", sizes=6)
        result = Session().simulate(base, sizes=8)
        assert result.rows[0]["n"] == 8

    def test_rejects_non_query_objects(self):
        with pytest.raises(ConfigurationError, match="expected a Query"):
            Session().simulate({"mode": "simulate"})

    def test_session_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Session(workers=0)


class TestObjectLevelHelpers:
    def test_trace_and_report_share_the_runner(self):
        from repro.algorithms.largest_id import LargestIdAlgorithm
        from repro.model.identifiers import random_assignment
        from repro.topology.cycle import cycle_graph

        session = Session()
        graph = cycle_graph(9)
        algorithm = LargestIdAlgorithm()
        ids = random_assignment(9, seed=4)
        trace = session.trace(graph, ids, algorithm)
        report = session.report(graph, ids, algorithm)
        assert report.max_radius == trace.max_radius
        assert len(session._runners) == 1

    def test_trace_equals_run_ball_algorithm(self):
        from repro.algorithms.largest_id import LargestIdAlgorithm
        from repro.core.runner import run_ball_algorithm
        from repro.model.identifiers import random_assignment
        from repro.engine.campaign import build_topology

        graph = build_topology("random-tree", 9, 5)
        ids = random_assignment(9, seed=6)
        algorithm = LargestIdAlgorithm()
        session_trace = Session().trace(graph, ids, algorithm)
        legacy_trace = run_ball_algorithm(graph, ids, algorithm)
        assert session_trace.radii() == legacy_trace.radii()
        assert session_trace.outputs_by_position() == legacy_trace.outputs_by_position()


class TestSessionCaches:
    @staticmethod
    def _session(monkeypatch, max_graphs):
        # The bounds are module constants, read when a session is built.
        import repro.api.session as session_module

        monkeypatch.setattr(session_module, "SESSION_MAX_GRAPHS", max_graphs)
        return Session()

    def test_hot_graph_survives_a_cold_sweep(self, monkeypatch):
        # The LRU regression scenario: one instance stays hot while a sweep
        # of one-shot instances streams through a tiny cache.  Under the old
        # oldest-insertion eviction the hot graph (oldest insertion, most
        # recent use) would be evicted; under LRU it must survive.
        session = self._session(monkeypatch, 3)
        hot = session.graph("cycle", 8)
        for n in (10, 12, 14, 16, 18, 20):
            session.graph("cycle", n)   # the cold sweep
            assert session.graph("cycle", 8) is hot   # the hot instance, re-hit
        assert session._graphs.evictions > 0

    def test_eviction_drops_the_least_recently_used(self, monkeypatch):
        session = self._session(monkeypatch, 2)
        first = session.graph("cycle", 6)
        session.graph("cycle", 8)
        session.graph("cycle", 6)        # refresh first
        session.graph("cycle", 10)       # evicts the 8-cycle, not the 6-cycle
        assert session.graph("cycle", 6) is first
        assert ("cycle", 8, 0) not in session._graphs

    def test_cache_info_counts_hits_misses_and_evictions(self, monkeypatch):
        session = self._session(monkeypatch, 2)
        info = session.cache_info()
        assert info == {"hits": 0, "misses": 0, "evictions": 0}
        session.graph("cycle", 6)
        session.graph("cycle", 6)
        session.graph("cycle", 8)
        session.graph("cycle", 10)
        info = session.cache_info()
        assert info["hits"] == 1
        assert info["misses"] == 3
        assert info["evictions"] == 1

    def test_results_surface_the_session_cache_counters(self):
        session = Session()
        first = session.simulate(topologies="cycle", sizes=8, seed=0)
        assert first.cache["session"]["misses"] > 0
        second = session.simulate(topologies="cycle", sizes=8, seed=1)
        assert second.cache["session"]["hits"] > first.cache["session"]["hits"]
        assert second.cache["session"]["evictions"] == 0

    def test_distribution_reuses_the_session_kernel(self):
        session = Session()
        session.distribution(topologies="cycle", sizes=6, methods="sample", samples=8)
        kernels_after_first = len(session._kernels)
        result = session.distribution(
            topologies="cycle", sizes=6, methods="sample", samples=8, seed=1
        )
        assert len(session._kernels) == kernels_after_first == 1
        assert result.rows[0]["kernel"]["rule"] in ("ring-scan", "runner-table")
        assert result.kernel["rows"] == 1

    def test_cache_limits_must_be_positive(self):
        from repro.api.session import _LruCache

        with pytest.raises(ConfigurationError):
            _LruCache(0)


class TestDefaultSession:
    def test_query_uses_one_shared_session(self):
        reset_default_session()
        query(mode="simulate", topologies="cycle", sizes=6)
        session = default_session()
        assert session.queries == 1
        query("simulate", topologies="cycle", sizes=6)
        assert session.queries == 2
        reset_default_session()
        assert default_session() is not session

    def test_repro_query_accepts_query_objects(self):
        result = repro.query(Query(mode="simulate", sizes=6), seed=2)
        assert result.mode == "simulate"
        assert result.query["seed"] == 2

    def test_repro_query_rejects_other_types(self):
        with pytest.raises(ConfigurationError, match="repro.query expects"):
            repro.query(42)
