"""Equivalence properties of the second-generation search layer.

Two guarantees are exercised here, as demanded by the search subsystem's
acceptance criteria:

* **pruned exhaustive == legacy exhaustive** — for every registered
  algorithm, on cycles, paths and random trees with ``n <= 7``, the
  symmetry-pruned canonical enumeration reports exactly the optimum of the
  legacy full ``n!`` enumeration, and its witness reproduces that value on
  re-evaluation (the heuristic ``local-search`` never exceeds it);
* **SwapEvaluator == incremental re-simulation == full re-simulation** —
  under random swap sequences every kernel-scored swap value equals the
  incremental oracle's (``tests/search/incremental_oracle.py``) and the
  objective of a fresh, from-scratch run of the swapped assignment, bit for
  bit, and committing the scored swap keeps all three in step.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import algorithm_registry
from repro.core.adversary import ExhaustiveAdversary, trace_objective
from repro.core.algorithm import BallAlgorithm
from repro.api.query import Query
from repro.engine.campaign import make_adversary, make_ball_algorithm
from repro.engine.frontier import FrontierRunner
from repro.model.identifiers import random_assignment
from repro.search.adversaries import PrunedExhaustiveAdversary
from repro.kernel.compile import compile_instance
from repro.search.strategies import SwapEvaluator
from repro.topology.cycle import cycle_graph
from repro.topology.grid import grid_graph
from repro.topology.path import path_graph
from repro.engine.campaign import build_topology

# The incremental oracle lives beside the search tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "search"))
from incremental_oracle import IncrementalSwapEvaluator  # noqa: E402

#: (label, builder) for the graph families of the equivalence suite.
FAMILIES = (
    ("cycle", lambda n: cycle_graph(n)),
    ("path", lambda n: path_graph(n)),
    ("tree", lambda n: build_topology("random-tree", n, 1234 + n)),
)

#: Sizes: every registered algorithm runs at n <= 6; the cheap ring pair
#: additionally runs the full n = 7 comparison (5040 legacy evaluations).
SMALL_SIZES = (5, 6)


def _supported_instances():
    for name in sorted(algorithm_registry()):
        for family, build in FAMILIES:
            for n in SMALL_SIZES:
                graph = build(n)
                algorithm = make_ball_algorithm(name, graph.n)
                assert isinstance(algorithm, BallAlgorithm)
                if not algorithm.supports_graph(graph):
                    continue
                yield pytest.param(
                    name, family, n, id=f"{name}-{family}-{n}"
                )


@pytest.mark.parametrize("name,family,n", list(_supported_instances()))
@pytest.mark.parametrize("objective", ["average", "max"])
def test_pruned_exhaustive_matches_legacy_enumeration(name, family, n, objective):
    build = dict(FAMILIES)[family]
    graph = build(n)
    algorithm = make_ball_algorithm(name, graph.n)
    legacy = ExhaustiveAdversary().maximise(graph, algorithm, objective)
    pruned = PrunedExhaustiveAdversary().maximise(graph, algorithm, objective)
    assert pruned.exact
    assert pruned.value == legacy.value
    # The witness must reproduce the optimum on independent re-evaluation.
    replay = trace_objective(FrontierRunner(graph, algorithm).run(pruned.assignment), objective)
    assert replay == pruned.value
    # Canonical enumeration covers one representative per orbit: never more
    # than the full space, never fewer than space / group order.
    certificate = pruned.certificate
    legacy_evaluations = legacy.evaluations
    assert certificate.canonical_leaves <= legacy_evaluations
    assert (
        certificate.canonical_leaves * certificate.group_order >= legacy_evaluations
    )


@pytest.mark.parametrize("family", ["cycle", "path"])
@pytest.mark.parametrize("objective", ["average", "max", "sum"])
def test_local_search_never_exceeds_the_exhaustive_optimum(family, objective):
    graph = dict(FAMILIES)[family](7)
    algorithm = make_ball_algorithm("largest-id", graph.n)
    optimum = ExhaustiveAdversary().maximise(graph, algorithm, objective)
    local_search = make_adversary(
        "local-search", Query(restarts=3, swaps_per_step=8, max_steps=8), seed=1
    )
    found = local_search.maximise(graph, algorithm, objective)
    assert not found.exact
    assert found.value <= optimum.value
    # The witness reproduces the reported lower bound.
    replay = trace_objective(FrontierRunner(graph, algorithm).run(found.assignment), objective)
    assert replay == found.value


def test_full_n7_cycle_comparison_for_the_paper_algorithm(largest_id_algorithm):
    graph = cycle_graph(7)
    legacy = ExhaustiveAdversary().maximise(graph, largest_id_algorithm, "average")
    pruned = PrunedExhaustiveAdversary().maximise(graph, largest_id_algorithm, "average")
    assert legacy.evaluations == 5040
    assert pruned.value == legacy.value
    assert pruned.certificate.canonical_leaves == 5040 // 14  # dihedral order 14


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    family=st.sampled_from(["cycle", "path", "tree", "grid"]),
    objective=st.sampled_from(["average", "max", "sum"]),
)
def test_swap_evaluator_matches_full_resimulation(seed, family, objective):
    rng = random.Random(seed)
    if family == "cycle":
        graph = cycle_graph(rng.randint(4, 14))
    elif family == "path":
        graph = path_graph(rng.randint(2, 14))
    elif family == "tree":
        graph = build_topology("random-tree", rng.randint(2, 12), seed)
    else:
        graph = grid_graph(rng.randint(2, 4), rng.randint(2, 4))
    name = rng.choice(["largest-id", "greedy-coloring", "greedy-mis"])
    algorithm = make_ball_algorithm(name, graph.n)
    ids = random_assignment(graph.n, seed=seed)
    evaluator = SwapEvaluator(compile_instance(graph, algorithm), objective, ids=ids)
    oracle = IncrementalSwapEvaluator(graph, algorithm, objective, ids=ids)
    reference = FrontierRunner(graph, algorithm)
    assert evaluator.value == oracle.value
    for _ in range(12):
        if graph.n < 2:
            break
        pairs = [tuple(rng.sample(range(graph.n), 2)) for _ in range(rng.randint(1, 4))]
        values = evaluator.score(pairs)
        for (a, b), value in zip(pairs, values):
            assert value == oracle.peek(a, b).value
            full = reference.run(oracle.assignment().with_swap(a, b))
            assert value == trace_objective(full, objective)
        if rng.random() < 0.5:
            (a, b), value = pairs[0], values[0]
            evaluator.swap(a, b, value)
            assert oracle.apply_swap(a, b) == value
            assert evaluator.identifiers == oracle.identifiers
