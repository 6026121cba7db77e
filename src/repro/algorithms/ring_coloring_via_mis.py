"""A uniform (no knowledge of ``n``) 3-colouring of the ring via an MIS.

The paper emphasises the setting where ``n`` is unknown and nodes may output
at different rounds.  Cole–Vishkin (as implemented in
:mod:`repro.algorithms.cole_vishkin`) uses ``n`` to know how many bit-trick
iterations to run; this module provides a genuinely *uniform* 3-colouring
with a very different radius profile:

1.  compute the greedy-by-identifier maximal independent set (uniform, see
    :mod:`repro.algorithms.mis`); its members take colour 0;
2.  by maximality and independence, the gaps between consecutive MIS members
    on a ring contain one or two non-members.  A lone non-member (both
    neighbours in the MIS) takes colour 1; in a two-node gap the two adjacent
    non-members compare identifiers — the larger takes colour 1, the smaller
    colour 2 — which both of them can evaluate locally and consistently.

A node therefore outputs as soon as its ball determines the MIS membership
of itself and of its two neighbours.  The radius profile inherits the MIS's:
worst case ``Theta(n)`` over identifier assignments (a sorted ring forces
long dependency chains) but ``O(log n)`` on average — a second problem,
besides largest-ID, where the paper's average measure is exponentially
better than the classic one, and a counterpoint to Cole–Vishkin whose two
measures coincide at ``Theta(log* n)``.
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.priority_resolution import resolve_by_descending_id
from repro.core.algorithm import BallAlgorithm
from repro.errors import AlgorithmError
from repro.model.ball import BallView
from repro.model.graph import Graph


class RingColoringViaMIS(BallAlgorithm):
    """Uniform 3-colouring of a ring: MIS members get 0, gap nodes get 1 or 2."""

    name = "ring-coloring-via-mis"
    problem = "3-coloring"
    # MIS membership and the gap tie-break (`center > other`) use only
    # identifier comparisons; the three colours are id-free.
    order_invariant = True
    uses_ports = False

    def supports_graph(self, graph: Graph) -> bool:
        return graph.is_cycle()

    def compile_kernel_rule(self, instance):
        """Cone rule spanning three cones
        (:class:`~repro.kernel.cone.RingMISConeRule`): a member outputs
        once its own cone's neighbourhood is visible, a non-member once its
        ball also resolves both neighbours' membership.  Only claimed on
        cycles in ring order (the rule reads increasing runs of positions);
        elsewhere the fallback runs, or surfaces the reference errors."""
        from repro.kernel.cone import RingMISConeRule
        from repro.kernel.rules import csr_is_ring

        if not (instance.graph.is_cycle() and csr_is_ring(instance.indptr, instance.indices)):
            return None

        return RingMISConeRule(instance)

    def decide(self, ball: BallView) -> Optional[int]:
        membership = resolve_by_descending_id(
            ball, lambda identifier, higher: not any(higher.values())
        )
        center = ball.center_id
        if center not in membership:
            return None
        if membership[center]:
            return 0
        neighbors = ball.neighbors_in_ball(center)
        if len(neighbors) < 2 or any(w not in membership for w in neighbors):
            return None
        member_neighbors = [w for w in neighbors if membership[w]]
        if len(member_neighbors) == 2:
            return 1
        if len(member_neighbors) == 1:
            (other,) = [w for w in neighbors if not membership[w]]
            return 1 if center > other else 2
        # Both neighbours outside the MIS would contradict maximality: the
        # centre itself would have had to join.  Reaching this line means the
        # membership computation is inconsistent, which is a bug worth
        # surfacing rather than colouring over.
        raise AlgorithmError(
            f"node {center} and both its neighbours are outside the MIS; "
            "the greedy MIS resolution is inconsistent"
        )
