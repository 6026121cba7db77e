"""Equivalence properties of the distribution layer.

The acceptance criteria of the distribution subsystem:

* **exact == brute force** — for every registered algorithm, on cycles,
  paths and random trees with ``n <= 6``, the orbit-weighted canonical
  enumeration reproduces the all-``n!`` brute-force distribution exactly:
  same joint, same per-node marginals, total weight exactly ``n!`` (which
  subsumes the mean/max equality of both measures);
* **sampled converges to exact** — under a fixed seed, the streaming
  Monte-Carlo estimates of both measure means land within their own
  normal confidence intervals of the exact values.
"""

from __future__ import annotations

import math

import pytest

from repro.algorithms.registry import algorithm_registry
from repro.core.algorithm import BallAlgorithm
from repro.dist.exact import brute_force_round_distribution, exact_round_distribution
from repro.dist.sampling import sample_round_distribution
from repro.engine.campaign import make_ball_algorithm
from repro.topology.cycle import cycle_graph
from repro.topology.path import path_graph
from repro.engine.campaign import build_topology

#: (label, builder) for the graph families of the equivalence suite —
#: the same families as the search-layer property tests.
FAMILIES = (
    ("cycle", lambda n: cycle_graph(n)),
    ("path", lambda n: path_graph(n)),
    ("tree", lambda n: build_topology("random-tree", n, 1234 + n)),
)

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
                yield pytest.param(name, family, n, id=f"{name}-{family}-{n}")


@pytest.mark.parametrize("name,family,n", list(_supported_instances()))
def test_exact_distribution_matches_brute_force(name, family, n):
    build = dict(FAMILIES)[family]
    graph = build(n)
    algorithm = make_ball_algorithm(name, graph.n)
    exact = exact_round_distribution(graph, algorithm)
    brute = brute_force_round_distribution(graph, algorithm)
    # Full distribution equality: joint and per-node marginals, not just moments.
    assert exact.distribution == brute
    assert exact.distribution.total_weight == math.factorial(n)
    # Means and maxima of both measures follow from the equality, but assert
    # them explicitly — they are the quantities the acceptance criteria name.
    assert exact.distribution.mean_average() == pytest.approx(brute.mean_average())
    assert exact.distribution.mean_max() == pytest.approx(brute.mean_max())
    assert (
        exact.distribution.max_distribution().max()
        == brute.max_distribution().max()
    )
    certificate = exact.certificate
    assert certificate.canonical_leaves * certificate.class_weight == math.factorial(n)


@pytest.mark.parametrize("family", [family for family, _ in FAMILIES])
def test_sampled_moments_converge_to_exact_under_fixed_seed(
    family, largest_id_algorithm
):
    build = dict(FAMILIES)[family]
    graph = build(6)
    exact = exact_round_distribution(graph, largest_id_algorithm).distribution
    sampled = sample_round_distribution(
        graph, largest_id_algorithm, samples=600, seed=20260729
    )
    for estimate, true_mean in (
        (sampled.average, exact.mean_average()),
        (sampled.maximum, exact.mean_max()),
    ):
        # 4 standard errors: a deterministic test must not sit at the 95%
        # boundary; a constant measure (std_error == 0) must match exactly.
        tolerance = max(4.0 * estimate.std_error, 1e-12)
        assert abs(estimate.mean - true_mean) <= tolerance
