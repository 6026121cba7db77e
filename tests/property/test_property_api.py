"""One executor, every way of calling it: the rows never change.

Every mode — simulate, worst-case, sweep, distribution — runs through
:meth:`Session.run`.  On cycles, paths, random trees and G(n, p) at
``n in {6, 7}``, a warm session (caches full of the same and other
instances), a fresh session and a pooled run (``workers`` 2 and 4) must
return the same rows, and the mode methods must equal ``run`` itself.
"""

import math

import pytest

from repro.algorithms.registry import make_algorithm
from repro.api.query import Query
from repro.api.results import strip_volatile
from repro.api.session import Session
from repro.core.runner import run_ball_algorithm
from repro.engine.campaign import build_topology
from repro.model.identifiers import IdentifierAssignment

#: The four graph families of the acceptance criterion, at n <= 7.
GRID = dict(topologies=("cycle", "path", "random-tree", "gnp"), sizes=(6, 7), seed=5)

QUERIES = {
    "simulate": Query(mode="simulate", **GRID),
    "worst-case": Query(
        mode="worst-case",
        adversaries=("rotation", "random-search", "branch-and-bound"),
        measure="average",
        samples=4,
        **GRID,
    ),
    "sweep": Query(
        mode="sweep", adversaries=("rotation", "random-search"), measure="sum", samples=4, **GRID
    ),
    "distribution": Query(
        mode="distribution", methods=("exact", "sample"), samples=8, **GRID
    ),
}


@pytest.fixture(scope="module")
def reference():
    """Every mode's result from its own fresh, serial session."""
    return {mode: Session().run(query) for mode, query in QUERIES.items()}


@pytest.fixture(scope="module")
def warm():
    """One session that has already answered every query of the module."""
    session = Session()
    for query in QUERIES.values():
        session.run(query)
    return session


def _assert_same(result, expected):
    assert strip_volatile(result.rows) == strip_volatile(expected.rows)
    assert result.as_dict()["measures"] == expected.as_dict()["measures"]


@pytest.mark.parametrize("mode", QUERIES)
def test_warm_session_mode_method_matches_fresh_run(warm, reference, mode):
    method = getattr(warm, mode.replace("-", "_"))
    _assert_same(method(QUERIES[mode]), reference[mode])


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("mode", QUERIES)
def test_pooled_run_matches_serial(reference, mode, workers):
    _assert_same(Session().run(QUERIES[mode].with_changes(workers=workers)), reference[mode])


def test_worst_case_and_sweep_share_the_search(reference):
    sweep = QUERIES["worst-case"].with_changes(mode="sweep")
    assert strip_volatile(Session().run(sweep).rows) == strip_volatile(
        reference["worst-case"].rows
    )


class TestSimulateParity:
    def test_session_rows_reproduce_under_the_legacy_runner(self, reference):
        rows = reference["simulate"].rows
        assert len(rows) == len(GRID["topologies"]) * len(GRID["sizes"])
        for row in rows:
            graph = build_topology(row["topology"], row["n"], row["graph_seed"])
            ids = IdentifierAssignment(row["identifiers"])
            trace = run_ball_algorithm(graph, ids, make_algorithm("largest-id", graph.n))
            assert trace.max_radius == row["classic"]
            assert math.isclose(trace.average_radius, row["average"])
            assert trace.sum_radius == row["sum"]
