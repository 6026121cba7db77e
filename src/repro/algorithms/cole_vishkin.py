"""Cole–Vishkin 3-colouring of the oriented ring.

This is the classic ``O(log* n)`` algorithm the paper's Section 3 refers to:
starting from the identifiers as colours, every node repeatedly applies the
Cole–Vishkin bit trick against its predecessor's colour until the palette
has shrunk to six colours, then three further rounds eliminate colours 5, 4
and 3 one by one (a node dropping colour ``c`` picks a free colour among
``{0, 1, 2}``, which always exists because it has only two neighbours).

Every node commits at exactly the same round, so the *average* radius of the
algorithm equals its worst-case radius ``Theta(log* n)`` — which is the point
of the paper's Theorem 1: no 3-colouring algorithm can do better than
``Omega(log* n)`` even on average.

The algorithm is presented in the round (message-passing) view; it assumes
the globally consistent orientation provided by
:func:`repro.topology.cycle.cycle_graph` (port 0 = successor).  It uses the
knowledge of ``n`` only to know how many bit-trick iterations are needed;
see ``EXPERIMENTS.md`` for why this does not affect the reproduction of the
paper's claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.algorithms.color_reduction import cv_step, free_color, iterations_until_six_colors
from repro.errors import AlgorithmError, TopologyError
from repro.model.graph import Graph
from repro.model.rounds import RoundAlgorithm
from repro.topology.cycle import PREDECESSOR_PORT, SUCCESSOR_PORT
from repro.utils.validation import require_positive_int


def cv_rounds_needed(n: int) -> int:
    """Total rounds used by :class:`ColeVishkinRing` on an ``n``-node ring."""
    require_positive_int(n, "n")
    return iterations_until_six_colors(n) + 3


def is_consistently_oriented_ring(graph: Graph) -> bool:
    """Whether ``graph`` is a cycle whose port numbering orients it consistently.

    Consistency means: following port :data:`SUCCESSOR_PORT` from every node
    walks around the whole cycle, and the node reached sees the sender
    through port :data:`PREDECESSOR_PORT`.
    """
    if not graph.is_cycle():
        return False
    for position in graph.positions():
        successor = graph.neighbors(position)[SUCCESSOR_PORT]
        if graph.port_to(successor, position) != PREDECESSOR_PORT:
            return False
    return True


@dataclass
class _CVMemory:
    """Private per-node memory of the Cole–Vishkin execution."""

    color: int
    phase: str  # "cv" or "reduce"
    iteration: int
    reduce_target: int


class ColeVishkinRing(RoundAlgorithm):
    """Cole–Vishkin 3-colouring on a consistently oriented ring of known size."""

    name = "cole-vishkin"
    problem = "3-coloring"

    def __init__(self, n: int) -> None:
        require_positive_int(n, "n")
        if n < 3:
            raise AlgorithmError("Cole–Vishkin needs a ring, hence at least 3 nodes")
        self.n = n
        self.cv_iterations = iterations_until_six_colors(n)

    # ------------------------------------------------------------------
    # RoundAlgorithm interface
    # ------------------------------------------------------------------
    def supports_graph(self, graph: Graph) -> bool:
        """Require a consistently oriented ring.

        ``self.n`` bounds the *identifier space*, not the ring length — the
        lower-bound experiments run rings smaller than the identifier pool —
        so only the topology is checked here; identifier range violations
        still surface per node in :meth:`initialize`.
        """
        return is_consistently_oriented_ring(graph)

    def initialize(self, identifier: int, degree: int) -> _CVMemory:
        if degree != 2:
            raise TopologyError(
                f"Cole–Vishkin runs on rings only; node {identifier} has degree {degree}"
            )
        if identifier >= self.n:
            raise AlgorithmError(
                f"identifier {identifier} is outside 0..{self.n - 1}; "
                "ColeVishkinRing expects identifiers drawn from 0..n-1"
            )
        phase = "cv" if self.cv_iterations > 0 else "reduce"
        return _CVMemory(color=identifier, phase=phase, iteration=0, reduce_target=5)

    def compile_ball_kernel_rule(self, instance):
        """Constant-radius kernel rule (:class:`~repro.kernel.cvring.ColeVishkinRingRule`).

        Every node commits at the same fixed round, so the output radius is
        assignment-independent.  Only claimed on consistently oriented
        rings — on anything else the fallback reproduces the reference
        errors.
        """
        if not is_consistently_oriented_ring(instance.graph):
            return None
        from repro.kernel.cvring import ColeVishkinRingRule

        return ColeVishkinRingRule(instance, self)

    def send(self, memory: _CVMemory, round_number: int) -> Mapping[int, Any]:
        if memory.phase == "cv":
            # The successor needs my colour for its bit-trick step.
            return {SUCCESSOR_PORT: memory.color}
        # Reduction rounds: both neighbours need my colour.
        return {SUCCESSOR_PORT: memory.color, PREDECESSOR_PORT: memory.color}

    def receive(
        self, memory: _CVMemory, inbox: Mapping[int, Any], round_number: int
    ) -> tuple[_CVMemory, Optional[int]]:
        if memory.phase == "cv":
            predecessor_color = inbox.get(PREDECESSOR_PORT)
            if predecessor_color is None:
                raise AlgorithmError("missing predecessor colour; is the ring oriented?")
            memory.color = cv_step(memory.color, predecessor_color)
            memory.iteration += 1
            if memory.iteration >= self.cv_iterations:
                memory.phase = "reduce"
            return memory, None
        # Reduction phase: drop colour ``reduce_target`` this round.
        neighbor_colors = {inbox[port] for port in (SUCCESSOR_PORT, PREDECESSOR_PORT)}
        if memory.color == memory.reduce_target:
            memory.color = free_color(neighbor_colors, palette=3)
        memory.reduce_target -= 1
        if memory.reduce_target == 2:
            return memory, memory.color
        return memory, None
