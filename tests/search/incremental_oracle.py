"""The incremental swap evaluator the swap strategies used to run.

A swap of the identifiers at positions ``a`` and ``b`` leaves every node
``v`` whose committed ball (radius ``r(v)``) contains neither position with
the exact same views at every radius up to ``r(v)``, so its radius and
output are unchanged; only the nodes with ``min(d(v, a), d(v, b)) <= r(v)``
are re-decided, each from the first radius at which the swap enters its
ball.  It shares nothing with the batch kernel but the algorithm's
``decide``, so the kernel-scored
:class:`~repro.search.strategies.SwapEvaluator` must agree with it swap for
swap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.core.algorithm import BallAlgorithm
from repro.engine.frontier import FrontierRunner
from repro.errors import AlgorithmError
from repro.model.ball import extract_ball
from repro.model.graph import Graph
from repro.model.identifiers import IdentifierAssignment, identity_assignment
from repro.model.trace import ExecutionTrace, NodeRecord


def resimulate_node(
    graph: Graph,
    algorithm: BallAlgorithm,
    identifiers: Sequence[int],
    position: int,
    start_radius: int = 0,
) -> tuple[int, Any]:
    """Decide one node from ``start_radius`` upward; return ``(radius, output)``.

    Balls are extracted from scratch; the cap is the runner's
    (eccentricity + 1), with the runner's error message.
    """
    ids = IdentifierAssignment(identifiers)
    radius = start_radius
    while True:
        output = algorithm.decide(extract_ball(graph, ids, position, radius))
        if output is not None:
            return radius, output
        cap = graph.eccentricity(position) + 1
        if radius >= cap:
            raise AlgorithmError(
                f"algorithm {algorithm.name!r} refused to output at position "
                f"{position} even at radius {cap}"
            )
        radius += 1


@dataclass(frozen=True)
class SwapDelta:
    """Outcome of examining one transposition without committing it.

    ``changes`` maps each re-decided position to its new ``(radius,
    output)`` pair; positions outside the map are untouched by the swap.
    """

    position_a: int
    position_b: int
    value: float
    sum_radius: int
    changes: tuple[tuple[int, int, Any], ...]


class IncrementalSwapEvaluator:
    """Per-node radii and outputs of an evolving assignment under swaps."""

    def __init__(
        self,
        graph: Graph,
        algorithm: BallAlgorithm,
        objective: str = "average",
        ids: Optional[IdentifierAssignment] = None,
    ) -> None:
        self.graph = graph
        self.algorithm = algorithm
        self.objective = objective
        self.evaluations = 0
        self.reset(ids if ids is not None else identity_assignment(graph.n))

    def reset(self, ids: IdentifierAssignment) -> float:
        """Replace the current assignment (full run) and return its value."""
        trace = FrontierRunner(self.graph, self.algorithm).run(ids)
        self.evaluations += 1
        self._ids = list(ids.identifiers())
        radii, outputs = trace.radii(), trace.outputs_by_position()
        self._radii = [radii[v] for v in self.graph.positions()]
        self._outputs = [outputs[v] for v in self.graph.positions()]
        self._sum_radius = trace.sum_radius
        return self.value

    @property
    def identifiers(self) -> tuple[int, ...]:
        return tuple(self._ids)

    def assignment(self) -> IdentifierAssignment:
        return IdentifierAssignment(self._ids)

    @property
    def sum_radius(self) -> int:
        return self._sum_radius

    @property
    def value(self) -> float:
        return self._value_of(self._sum_radius, self._radii)

    def _value_of(self, sum_radius: int, radii: list[int]) -> float:
        if self.objective == "max":
            return float(max(radii))
        if self.objective == "sum":
            return float(sum_radius)
        return sum_radius / self.graph.n

    def trace(self) -> ExecutionTrace:
        """The current per-node state as an execution trace."""
        return ExecutionTrace(
            {
                v: NodeRecord(
                    position=v,
                    identifier=self._ids[v],
                    radius=self._radii[v],
                    output=self._outputs[v],
                )
                for v in self.graph.positions()
            }
        )

    def peek(self, position_a: int, position_b: int) -> SwapDelta:
        """Examine the transposition of two positions without committing it."""
        graph = self.graph
        self.evaluations += 1
        scratch = list(self._ids)
        scratch[position_a], scratch[position_b] = scratch[position_b], scratch[position_a]
        dist_a = graph.distances_from(position_a)
        dist_b = graph.distances_from(position_b)
        changes: list[tuple[int, int, Any]] = []
        new_sum = self._sum_radius
        for v in graph.positions():
            contact = min(dist_a[v], dist_b[v])
            if contact > self._radii[v]:
                continue
            radius, output = resimulate_node(
                graph, self.algorithm, scratch, v, start_radius=contact
            )
            if radius != self._radii[v] or output != self._outputs[v]:
                changes.append((v, radius, output))
                new_sum += radius - self._radii[v]
        new_radii = list(self._radii)
        for v, radius, _ in changes:
            new_radii[v] = radius
        return SwapDelta(
            position_a=position_a,
            position_b=position_b,
            value=self._value_of(new_sum, new_radii),
            sum_radius=new_sum,
            changes=tuple(changes),
        )

    def commit(self, delta: SwapDelta) -> float:
        """Apply a previously examined transposition and return the new value."""
        a, b = delta.position_a, delta.position_b
        self._ids[a], self._ids[b] = self._ids[b], self._ids[a]
        for v, radius, output in delta.changes:
            self._radii[v] = radius
            self._outputs[v] = output
        self._sum_radius = delta.sum_radius
        return delta.value

    def apply_swap(self, position_a: int, position_b: int) -> float:
        """Examine and immediately commit one transposition."""
        return self.commit(self.peek(position_a, position_b))
