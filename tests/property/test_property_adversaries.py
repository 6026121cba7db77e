"""The sampling adversaries against their per-candidate reference loop.

``random-search`` and ``rotation`` score their candidates as batch-kernel
cohorts and trace only the witness.  The oracle below is the loop they
replaced: one :class:`~repro.engine.frontier.FrontierRunner` run per
candidate, the first strict maximum winning.  Both must agree on the value,
the witness and the evaluation count, on every topology family, objective,
kernel rule and kernel backend.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.kernel.backend as kernel_backend
from repro.algorithms.greedy_coloring import GreedyColoringByID
from repro.algorithms.largest_id import LargestIdAlgorithm
from repro.core.adversary import (
    OBJECTIVES,
    RandomSearchAdversary,
    RotationAdversary,
    trace_objective,
)
from repro.core.algorithm import FunctionBallAlgorithm
from repro.engine.campaign import build_topology
from repro.engine.frontier import FrontierRunner
from repro.kernel.compile import DEFAULT_BATCH_ROWS
from repro.model.identifiers import identity_assignment, random_assignment
from repro.utils.rng import make_rng

TOPOLOGIES = ("cycle", "path", "random-tree", "gnp")

BACKENDS = ("python", "numpy") if kernel_backend.numpy_available() else ("python",)


def _opaque_greedy_coloring():
    # No compile_kernel_rule: the kernel falls back to the runner-table rule
    # (tests/search/test_branch_bound.py checks that it does).
    return FunctionBallAlgorithm(
        GreedyColoringByID().decide,
        name="greedy-coloring-opaque",
        problem="coloring",
        order_invariant=True,
        uses_ports=False,
    )


ALGORITHMS = {
    "largest-id": LargestIdAlgorithm,
    "greedy-coloring-opaque": _opaque_greedy_coloring,
}


def oracle(graph, algorithm, objective, candidates):
    """(value, witness ids, evaluations): one engine run per candidate."""
    runner = FrontierRunner(graph, algorithm)
    best = None
    evaluations = 0
    for ids in candidates:
        value = trace_objective(runner.run(ids), objective)
        evaluations += 1
        if best is None or value > best[0]:
            best = (value, ids.identifiers())
    return best[0], best[1], evaluations


def random_draws(n, samples, seed):
    """Exactly the assignments ``RandomSearchAdversary(samples, seed)`` draws."""
    rng = make_rng(seed)
    return [random_assignment(n, seed=rng.getrandbits(64)) for _ in range(samples)]


def _on_backend(backend, run):
    """Run ``run()`` with ``backend`` as the process's default kernel backend."""
    saved = kernel_backend._default_backend
    kernel_backend._default_backend = backend
    try:
        return run()
    finally:
        kernel_backend._default_backend = saved


def _summary(result):
    return result.value, result.assignment.identifiers(), result.evaluations


@settings(max_examples=40, deadline=None)
@given(
    topology=st.sampled_from(TOPOLOGIES),
    n=st.integers(min_value=3, max_value=12),
    graph_seed=st.integers(min_value=0, max_value=50),
    algorithm=st.sampled_from(sorted(ALGORITHMS)),
    objective=st.sampled_from(OBJECTIVES),
    samples=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=2**32),
    backend=st.sampled_from(BACKENDS),
)
def test_sampling_adversaries_match_the_per_candidate_oracle(
    topology, n, graph_seed, algorithm, objective, samples, seed, backend
):
    graph = build_topology(topology, n, graph_seed)
    assume(graph.is_connected())
    instance = ALGORITHMS[algorithm]()
    random_search = _on_backend(
        backend,
        lambda: RandomSearchAdversary(samples=samples, seed=seed).maximise(
            graph, instance, objective
        ),
    )
    assert _summary(random_search) == oracle(
        graph, instance, objective, random_draws(graph.n, samples, seed)
    )
    rotation = _on_backend(
        backend, lambda: RotationAdversary().maximise(graph, instance, objective)
    )
    base = identity_assignment(graph.n)
    assert _summary(rotation) == oracle(
        graph, instance, objective, [base.rotated(shift) for shift in range(graph.n)]
    )
    # The witness trace reproduces the reported value.
    for result in (random_search, rotation):
        assert trace_objective(result.trace, objective) == result.value
        assert result.cache_stats.lookups > 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_several_cohorts_keep_the_first_strict_maximum(backend, algorithm):
    # 2 full cohorts and a partial one; on a 7-cycle many draws tie at the
    # maximum, so the winner must be the earliest of them across cohorts.
    samples = 2 * DEFAULT_BATCH_ROWS + 37
    graph = build_topology("cycle", 7, 0)
    instance = ALGORITHMS[algorithm]()
    result = _on_backend(
        backend,
        lambda: RandomSearchAdversary(samples=samples, seed=11).maximise(
            graph, instance, "max"
        ),
    )
    assert _summary(result) == oracle(
        graph, instance, "max", random_draws(graph.n, samples, 11)
    )

