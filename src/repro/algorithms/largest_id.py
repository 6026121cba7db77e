"""The largest-ID algorithm (Section 2 of the paper).

Every node must output ``True`` if it carries the largest identifier of the
whole graph and ``False`` otherwise — "a classic way to elect a leader".
The paper's algorithm is the obvious one: *each node increases its radius
until it discovers an identifier larger than its own, or until it has seen
the whole graph*.

On a cycle the worst-case radius of this algorithm is linear (the maximum
node must see everything) while its **average** radius is logarithmic — the
exponential gap the paper uses to motivate the average measure.  The
algorithm itself is correct on every connected graph, so the experiments can
also exercise it on trees, grids and random graphs.
"""

from __future__ import annotations

from typing import Optional

from repro.core.algorithm import BallAlgorithm
from repro.model.ball import BallView
from repro.model.graph import Graph
from repro.model.identifiers import IdentifierAssignment


class LargestIdAlgorithm(BallAlgorithm):
    """Grow the ball until a larger identifier or the whole graph is visible."""

    name = "largest-id"
    problem = "largest-id"
    # Only identifier comparisons and ball structure enter the decision, and
    # the output is a bare boolean, so id-relabeled caching is sound.
    order_invariant = True
    uses_ports = False

    def decide(self, ball: BallView) -> Optional[bool]:
        if ball.contains_id_larger_than(ball.center_id):
            return False
        if ball.covers_whole_graph():
            return True
        return None

    def compile_kernel_rule(self, instance):
        """The CSR rule of :meth:`compile_scale_rule`, on the instance's CSR.

        Largest-ID has one rule family in every mode: the ring scan
        (:class:`~repro.kernel.rules.RingScanScaleRule`) when every
        position ``v`` is adjacent to exactly ``v - 1`` and ``v + 1`` mod
        ``n``, the early-stop BFS (:class:`~repro.kernel.rules.MaxScanScaleRule`)
        otherwise.  The ring scan needs only ``n`` and the BFS only the
        instance's CSR adjacency, so compiling and evaluating batches builds
        no frontier plan.
        """
        from repro.kernel.rules import MaxScanScaleRule, RingScanScaleRule, csr_is_ring

        indptr, indices = instance.indptr, instance.indices
        if csr_is_ring(indptr, indices):
            return RingScanScaleRule(instance.n, instance.backend)
        return MaxScanScaleRule(indptr, indices, instance.backend)

    def compile_scale_rule(self, csr):
        """Plan-free rule on a streamed CSR topology: nearest larger ID.

        The same rule classes as :meth:`compile_kernel_rule`, built on the
        streamed topology, which is what lets the ``scale`` query mode sample
        this algorithm on 10^6-node topologies with bounded memory (see
        :mod:`repro.kernel.shard`).  The streamed ``cycle`` family is a ring
        by construction, so it takes the ring scan from ``n`` alone: no
        ``O(n)`` check, and its CSR arrays are never built.
        """
        from repro.kernel.rules import MaxScanScaleRule, RingScanScaleRule

        if csr.topology == "cycle":
            return RingScanScaleRule(csr.n)
        return MaxScanScaleRule(csr.indptr, csr.indices)


def predicted_largest_id_radii(graph: Graph, ids: IdentifierAssignment) -> dict[int, int]:
    """Closed-form radii of :class:`LargestIdAlgorithm` on any connected graph.

    The node with the globally largest identifier stops when its ball covers
    the whole graph, i.e. at its eccentricity.  Every other node stops at
    the distance to the nearest node with a larger identifier.  Used as an
    oracle in tests to validate the ball simulator end to end.
    """
    radii: dict[int, int] = {}
    for position in graph.positions():
        own = ids[position]
        distances = graph.distances_from(position)
        larger = [d for u, d in distances.items() if ids[u] > own]
        if larger:
            radii[position] = min(larger)
        else:
            radii[position] = graph.eccentricity(position)
    return radii


def predicted_average_radius(graph: Graph, ids: IdentifierAssignment) -> float:
    """Average of :func:`predicted_largest_id_radii` (per-assignment, no max)."""
    radii = predicted_largest_id_radii(graph, ids)
    return sum(radii.values()) / graph.n
