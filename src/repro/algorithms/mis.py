"""Greedy maximal independent set by identifier.

The global rule is the classic sequential one: a node joins the independent
set exactly when none of its higher-identifier neighbours joined.  The
resulting set is independent (two adjacent nodes cannot both have all-higher
neighbours outside the set) and maximal (a node outside the set has, by
definition, a higher neighbour inside it).

As a LOCAL algorithm the dependency structure is identical to greedy
colouring: a node outputs once the cone of increasing-identifier paths
leaving it is contained in its ball, so the same average-versus-worst-case
gap appears on cycles.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.algorithms.priority_resolution import resolve_by_descending_id
from repro.core.algorithm import BallAlgorithm
from repro.model.ball import BallView


class GreedyMISByID(BallAlgorithm):
    """Join the MIS exactly when no higher-identifier neighbour joined."""

    name = "greedy-mis"
    problem = "mis"
    # Membership is decided purely by identifier comparisons along the
    # descending-id recursion; the output is a bare boolean.
    order_invariant = True
    uses_ports = False

    def decide(self, ball: BallView) -> Optional[bool]:
        determined = resolve_by_descending_id(
            ball,
            lambda identifier, higher: not any(higher.values()),
        )
        return determined.get(ball.center_id)

    def compile_kernel_rule(self, instance):
        """Dependency-cone rule (:class:`~repro.kernel.cone.GreedyConeRule`):
        the same cones, hence the same radii, as greedy colouring."""
        from repro.kernel.cone import GreedyConeRule

        return GreedyConeRule(instance, problem="mis")
