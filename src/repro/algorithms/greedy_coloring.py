"""Greedy colouring by identifier.

The global rule is the sequential greedy colouring along decreasing
identifiers: a node's colour is the smallest non-negative integer unused by
its neighbours of *higher* identifier.  The palette never exceeds
``max degree + 1``.

As a LOCAL algorithm the node grows its ball until the full cone of
increasing-identifier paths leaving it is visible.  On a cycle the worst
case over identifier assignments is linear (sorted identifiers force a node
to follow an increasing run around the whole ring) while a random assignment
gives constant expected radius — a second natural example, besides
largest-ID, of a problem whose average-measure behaviour is far better than
its classic worst case.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.algorithms.priority_resolution import resolve_by_descending_id
from repro.core.algorithm import BallAlgorithm
from repro.model.ball import BallView


def _smallest_free_color(used: Mapping[int, int]) -> int:
    color = 0
    taken = set(used.values())
    while color in taken:
        color += 1
    return color


class GreedyColoringByID(BallAlgorithm):
    """Colour = smallest colour unused by higher-identifier neighbours."""

    name = "greedy-coloring"
    problem = "coloring"
    # The descending-id resolution and the smallest-free-colour rule use only
    # identifier comparisons; colours themselves are id-free.
    order_invariant = True
    uses_ports = False

    def decide(self, ball: BallView) -> Optional[int]:
        determined = resolve_by_descending_id(
            ball, lambda identifier, higher: _smallest_free_color(higher)
        )
        return determined.get(ball.center_id)

    def compile_kernel_rule(self, instance):
        """Dependency-cone rule (:class:`~repro.kernel.cone.GreedyConeRule`):
        the radius is the farthest neighbour of the centre's cone of
        increasing-identifier paths, from run lengths on cycles and the
        longest-increasing-path recurrence on trees."""
        from repro.kernel.cone import GreedyConeRule

        return GreedyConeRule(instance, problem="coloring")
