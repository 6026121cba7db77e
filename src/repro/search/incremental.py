"""Incremental re-evaluation of identifier transpositions.

A local-search step swaps the identifiers of two positions ``a`` and ``b``.
Every node ``v`` whose committed ball (radius ``r(v)``) contains neither
``a`` nor ``b`` sees the exact same views as before at every radius up to
``r(v)``, so its radius and output are unchanged; only the nodes with
``min(d(v, a), d(v, b)) <= r(v)`` need re-simulation, and even those only
from the first radius at which the swap enters their ball.  On large graphs
a swap typically touches a small neighbourhood, which makes a hill-climbing
or annealing step orders of magnitude cheaper than a full re-run.

:class:`SwapEvaluator` maintains the per-node radii and outputs of a current
assignment inside one engine session (frontier plans + decision cache), so
repeated examinations of the same swap also hit the decision cache.

For algorithms with a vectorised kernel rule there is a second gear:
:meth:`SwapEvaluator.peek_values_batch` scores a whole *set* of candidate
transpositions in one :func:`repro.kernel.compile.simulate_batch` call —
one matrix row per candidate — which is how the portfolio strategies
(:mod:`repro.search.strategies`) examine their per-step swap samples.  The
values are bit-identical to :meth:`SwapEvaluator.peek`; the chosen swap is
then committed through the incremental path as before (batch scoring
returns values only, so the winner is re-examined once by :meth:`peek` to
obtain its :class:`SwapDelta` — one extra cheap incremental evaluation per
committed step, counted by ``evaluations`` like any other examination).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.core.adversary import validate_objective
from repro.core.algorithm import BallAlgorithm
from repro.engine.cache import DECISION_CACHE_MAX_ENTRIES, CacheStats, DecisionCache
from repro.engine.frontier import FrontierRunner
from repro.model.graph import Graph
from repro.model.identifiers import IdentifierAssignment
from repro.model.trace import ExecutionTrace, NodeRecord

#: Minimum candidate-set size at which batch scoring beats per-swap
#: incremental re-simulation; below it the fixed batch dispatch dominates.
MIN_BATCH_SWAPS = 4

#: Lazy-compilation sentinel for the evaluator's kernel instance.
_KERNEL_UNSET = object()


@dataclass(frozen=True)
class SwapDelta:
    """Outcome of examining one transposition without committing it.

    ``changes`` maps each re-simulated position to its new
    ``(radius, output)`` pair; positions outside the map are untouched by
    the swap.  Pass the delta back to :meth:`SwapEvaluator.commit` to apply
    it in ``O(len(changes))``.
    """

    position_a: int
    position_b: int
    value: float
    sum_radius: int
    changes: tuple[tuple[int, int, Any], ...]


class SwapEvaluator:
    """Objective tracking for an evolving assignment under swap moves.

    Parameters
    ----------
    graph, algorithm, objective:
        The fixed instance and the objective to report (``average``, ``max``
        or ``sum``).
    ids:
        Starting assignment; defaults to the identity.
    """

    def __init__(
        self,
        graph: Graph,
        algorithm: BallAlgorithm,
        objective: str = "average",
        ids: Optional[IdentifierAssignment] = None,
    ) -> None:
        from repro.model.identifiers import identity_assignment

        validate_objective(objective)
        self.graph = graph
        self.algorithm = algorithm
        self.objective = objective
        self.cache = DecisionCache(algorithm, max_entries=DECISION_CACHE_MAX_ENTRIES)
        self.runner = FrontierRunner(graph, algorithm, cache=self.cache)
        self._kernel: Any = _KERNEL_UNSET
        self.evaluations = 0
        self._radii: list[int] = []
        self._outputs: list[Any] = []
        self._ids: list[int] = []
        self.reset(ids if ids is not None else identity_assignment(graph.n))

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    def reset(self, ids: IdentifierAssignment) -> float:
        """Replace the current assignment (full re-simulation) and return its value."""
        trace = self.runner.run(ids)
        self.evaluations += 1
        self._ids = list(ids.identifiers())
        self._radii = [0] * self.graph.n
        self._outputs = [None] * self.graph.n
        for record in trace:
            self._radii[record.position] = record.radius
            self._outputs[record.position] = record.output
        self._sum_radius = trace.sum_radius
        return self.value

    @property
    def identifiers(self) -> tuple[int, ...]:
        """The current assignment as a position -> identifier tuple."""
        return tuple(self._ids)

    def assignment(self) -> IdentifierAssignment:
        """The current assignment as an :class:`IdentifierAssignment`."""
        return IdentifierAssignment(self._ids)

    @property
    def sum_radius(self) -> int:
        """Total radius of the current assignment."""
        return self._sum_radius

    @property
    def value(self) -> float:
        """Objective value of the current assignment."""
        return self._value_of(self._sum_radius, self._radii)

    @property
    def cache_stats(self) -> CacheStats:
        """Decision-cache statistics of the whole session."""
        return self.cache.stats

    def _value_of(self, sum_radius: int, radii: list[int]) -> float:
        if self.objective == "max":
            return float(max(radii))
        if self.objective == "sum":
            return float(sum_radius)
        return sum_radius / self.graph.n

    def trace(self) -> ExecutionTrace:
        """Materialise the current per-node state as an execution trace."""
        records = {
            position: NodeRecord(
                position=position,
                identifier=self._ids[position],
                radius=self._radii[position],
                output=self._outputs[position],
            )
            for position in self.graph.positions()
        }
        return ExecutionTrace(records)

    # ------------------------------------------------------------------
    # swap moves
    # ------------------------------------------------------------------
    def peek(self, position_a: int, position_b: int) -> SwapDelta:
        """Examine the transposition of two positions without committing it.

        Only nodes whose committed ball contains ``position_a`` or
        ``position_b`` are re-simulated, each from the first radius at which
        the swap becomes visible to it.
        """
        graph = self.graph
        self.evaluations += 1
        scratch = list(self._ids)
        scratch[position_a], scratch[position_b] = (
            scratch[position_b],
            scratch[position_a],
        )
        dist_a = graph.distances_from(position_a)
        dist_b = graph.distances_from(position_b)
        resimulate = self.runner.resimulate_node
        changes: list[tuple[int, int, Any]] = []
        new_sum = self._sum_radius
        for v in graph.positions():
            contact = min(dist_a[v], dist_b[v])
            if contact > self._radii[v]:
                continue
            radius, output = resimulate(scratch, v, start_radius=contact)
            if radius != self._radii[v] or output != self._outputs[v]:
                changes.append((v, radius, output))
                new_sum += radius - self._radii[v]
        if self.objective == "max":
            new_radii = list(self._radii)
            for v, radius, _ in changes:
                new_radii[v] = radius
            value = self._value_of(new_sum, new_radii)
        else:
            value = self._value_of(new_sum, self._radii)
        return SwapDelta(
            position_a=position_a,
            position_b=position_b,
            value=value,
            sum_radius=new_sum,
            changes=tuple(changes),
        )

    def peek_values_batch(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[float]:
        """Objective values of many candidate transpositions, batch-scored.

        One matrix row per candidate (the current assignment with that pair
        swapped), evaluated in a single kernel batch when the algorithm has
        a vectorised rule and the candidate set is worth a batch; otherwise
        each pair goes through the incremental :meth:`peek` path.  Both
        paths return exactly ``[self.peek(a, b).value for a, b in pairs]``
        and count ``len(pairs)`` evaluations, so strategy trajectories are
        identical whichever gear runs.  Scoring never moves the evaluator:
        commit the chosen swap with :meth:`peek` + :meth:`commit` (or
        :meth:`apply_swap`).
        """
        if not pairs:
            return []
        kernel = self._batch_kernel()
        if (
            kernel is None
            or len(pairs) < MIN_BATCH_SWAPS
            or not self._kernel_accepts_ids(kernel)
        ):
            return [self.peek(a, b).value for a, b in pairs]
        base = self._ids
        rows = []
        for a, b in pairs:
            row = list(base)
            row[a], row[b] = row[b], row[a]
            rows.append(row)
        self.evaluations += len(pairs)
        values = []
        for radii in kernel.batch_radii(rows, pre_validated=True):
            if self.objective == "max":
                values.append(float(max(radii)))
            elif self.objective == "sum":
                values.append(float(sum(radii)))
            else:
                values.append(sum(radii) / self.graph.n)
        return values

    def _batch_kernel(self):
        """The compiled batch instance, or ``None`` without a vectorised rule."""
        if self._kernel is _KERNEL_UNSET:
            from repro.kernel.compile import compile_instance

            instance = compile_instance(self.graph, self.algorithm, validate=False)
            self._kernel = instance if instance.vectorized else None
        return self._kernel

    def _kernel_accepts_ids(self, kernel) -> bool:
        """Whether the kernel backend can represent the current identifiers.

        The numpy backend gathers int64 arrays; assignments carrying
        identifiers beyond that range (perfectly legal for the runner path)
        quietly take the per-pair incremental gear instead.
        """
        from repro.kernel.compile import NUMPY_MAX_IDENTIFIER

        if kernel.backend != "numpy":
            return True
        return max(self._ids) <= NUMPY_MAX_IDENTIFIER

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
