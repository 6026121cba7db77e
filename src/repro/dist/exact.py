"""Exact measure distributions over all ``n!`` identifier assignments.

The brute-force way to know how ``(max_radius, average_radius)`` is
distributed over identifier assignments is to simulate all ``n!`` of them.
This module computes the *same* distribution from ``n!/|Aut|`` simulations:
the canonical enumeration of :class:`~repro.search.branch_bound.BranchAndBoundSearch`
visits exactly one representative per orbit of the
graph's automorphism group, and because the group acts **freely** on
bijective assignments, every orbit has exactly ``|Aut|`` members — each
canonical leaf carries multiplicity ``|Aut|``, and the weighted total is
exactly ``n!``.

Per-node marginals need one more step: composing an assignment with an
automorphism ``sigma`` permutes the radius vector (``r'(v) = r(sigma(v))``),
so a node's marginal over a full orbit mixes the radii of its *position
orbit*.  :func:`exact_round_distribution` therefore accumulates per-position
leaf counts and redistributes them over each position's orbit with weight
``|Aut| / |orbit|``.

Every result carries a :class:`DistributionCertificate` — the distribution
analogue of :class:`~repro.search.branch_bound.SearchCertificate` — so the
"this is exactly the all-``n!`` distribution" claim is auditable: class
count times class weight must equal ``n!``, and the tests and benchmarks
cross-check against :func:`brute_force_round_distribution`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Optional

from repro.core.algorithm import BallAlgorithm
from repro.dist.distribution import RoundDistribution
from repro.engine.frontier import FrontierRunner
from repro.errors import ConfigurationError
from repro.model.graph import Graph
from repro.model.identifiers import IdentifierAssignment
from repro.obs.spans import span as _obs_span
from repro.search.automorphisms import orbit_partition
from repro.search.branch_bound import (
    DEFAULT_EXACT_MAX_NODES,
    DEFAULT_MAX_CLASSES,
    BranchAndBoundSearch,
)


@dataclass(frozen=True)
class DistributionCertificate:
    """Audit trail of one exact distribution computation.

    ``space_size`` is the full ``n!``; ``canonical_leaves`` is how many
    symmetry-inequivalent assignments were actually simulated, each counted
    with multiplicity ``class_weight`` (the automorphism group order).  An
    exact certificate always satisfies ``canonical_leaves * class_weight ==
    space_size == total_weight``.
    """

    exact: bool
    space_size: int
    group_order: int
    group_respects_ports: bool
    canonical_leaves: int
    class_weight: int
    total_weight: int
    nodes_expanded: int

    def as_dict(self) -> dict:
        """JSON-friendly form (campaign rows, CLI artifacts)."""
        return asdict(self)


@dataclass(frozen=True)
class ExactDistributionResult:
    """An exact :class:`RoundDistribution` plus its certificate.

    ``kernel`` records how the canonical leaves were evaluated: the
    backend/rule of the search's
    :class:`~repro.kernel.compile.CompiledInstance`, on which
    :meth:`~repro.search.branch_bound.BranchAndBoundSearch.run` evaluates
    leaf blocks.
    """

    distribution: RoundDistribution
    certificate: DistributionCertificate
    kernel: Optional[dict] = None


def exact_round_distribution(
    graph: Graph,
    algorithm: BallAlgorithm,
    respect_ports: Optional[bool] = None,
    max_nodes: int = DEFAULT_EXACT_MAX_NODES,
    max_classes: int = DEFAULT_MAX_CLASSES,
) -> ExactDistributionResult:
    """The exact distribution of ``(max_radius, sum_radius)`` over all ``n!``.

    One representative per canonical assignment class is simulated through
    the symmetry-pruned enumerator and weighted by the class
    multiplicity ``|Aut|``.  The result equals
    :func:`brute_force_round_distribution` exactly, at a fraction of the
    simulations on symmetric topologies.

    >>> from repro.algorithms.largest_id import LargestIdAlgorithm
    >>> from repro.topology.cycle import cycle_graph
    >>> result = exact_round_distribution(cycle_graph(6), LargestIdAlgorithm())
    >>> result.distribution.total_weight
    720
    >>> result.certificate.canonical_leaves * result.certificate.class_weight
    720
    >>> result.distribution.max_distribution().support()
    (3,)
    """
    if graph.n > max_nodes:
        raise ConfigurationError(
            f"exact_round_distribution is limited to {max_nodes} nodes "
            f"(got {graph.n}); use repro.dist.sampling for larger instances"
        )
    search = BranchAndBoundSearch(
        graph,
        algorithm,
        objective="sum",
        respect_ports=respect_ports,
    )
    group = search.group
    classes = math.factorial(graph.n) // max(1, group.order)
    if classes > max_classes:
        raise ConfigurationError(
            f"exact_round_distribution on {graph.name!r} faces ~{classes} canonical "
            f"assignment classes (n! / |Aut| with |Aut| = {group.order}), above the "
            f"budget of {max_classes}; raise max_classes or sample instead"
        )
    n = graph.n
    joint: Counter = Counter()
    position_counts = [Counter() for _ in range(n)]

    def collect(ids, radii) -> None:
        # One fold per evaluated block of canonical leaves.
        rows = radii.tolist() if hasattr(radii, "tolist") else radii
        joint.update(zip(map(max, rows), map(sum, rows)))
        for counts, column in zip(position_counts, zip(*rows)):
            counts.update(column)

    with _obs_span("dist.exact", n=n, classes=classes):
        outcome = search.run(on_block=collect)
    leaves = outcome.certificate.canonical_leaves
    order = group.order
    # The group acts freely on bijective assignments, so every orbit has
    # exactly |Aut| members and the weighted total is n! on the nose.
    weighted_joint = {pair: count * order for pair, count in joint.items()}
    # Node v's marginal mixes the leaf counts of its whole position orbit:
    # for each u in orbit(v) there are |Aut|/|orbit| automorphisms mapping
    # v to u, each contributing u's radius to v's distribution.
    marginals: list[dict[int, int]] = [{} for _ in range(n)]
    for orbit in orbit_partition(group):
        share = order // len(orbit)
        pooled: dict[int, int] = {}
        for u in orbit:
            for radius, count in position_counts[u].items():
                pooled[radius] = pooled.get(radius, 0) + count
        weighted = {radius: count * share for radius, count in pooled.items()}
        for v in orbit:
            marginals[v] = dict(weighted)
    distribution = RoundDistribution.from_counts(
        n=n, joint=weighted_joint, node_marginals=marginals
    )
    certificate = DistributionCertificate(
        exact=True,
        space_size=math.factorial(n),
        group_order=order,
        group_respects_ports=group.respects_ports,
        canonical_leaves=leaves,
        class_weight=order,
        total_weight=distribution.total_weight,
        nodes_expanded=outcome.certificate.nodes_expanded,
    )
    assert certificate.total_weight == certificate.space_size
    return ExactDistributionResult(
        distribution=distribution,
        certificate=certificate,
        kernel=search.kernel.describe(),
    )


def brute_force_round_distribution(
    graph: Graph, algorithm: BallAlgorithm, max_nodes: int = 9
) -> RoundDistribution:
    """Reference implementation: simulate all ``n!`` assignments directly.

    Used by the property tests and the benchmark to certify
    :func:`exact_round_distribution`; one shared engine session keeps the
    cost bearable at the sizes where ``n!`` enumeration is feasible at all.
    """
    import itertools

    if graph.n > max_nodes:
        raise ConfigurationError(
            f"brute_force_round_distribution is limited to {max_nodes} nodes "
            f"(got {graph.n}); use exact_round_distribution instead"
        )
    n = graph.n
    runner = FrontierRunner(graph, algorithm)
    joint: dict[tuple[int, int], int] = {}
    marginals: list[dict[int, int]] = [{} for _ in range(n)]
    for permutation in itertools.permutations(range(n)):
        trace = runner.run(IdentifierAssignment(permutation))
        key = (trace.max_radius, trace.sum_radius)
        joint[key] = joint.get(key, 0) + 1
        for position, radius in trace.radii().items():
            counts = marginals[position]
            counts[radius] = counts.get(radius, 0) + 1
    return RoundDistribution.from_counts(n=n, joint=joint, node_marginals=marginals)
