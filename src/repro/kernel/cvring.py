"""Vectorised Cole–Vishkin rule for consistently oriented rings.

:class:`~repro.algorithms.cole_vishkin.ColeVishkinRing` commits every node at
exactly round ``R = iterations_until_six_colors(n) + 3``, so under the
ball simulation (:class:`~repro.algorithms.full_gather.BallSimulationOfRounds`)
the output radius is assignment-independent: ``min(R, n // 2)`` (a ball
covering the whole ring, at radius ``n // 2``, replays the execution to
completion early).
The outputs themselves come from replaying the global synchronous execution
on whole identifier matrices: ``cv_iterations`` batched bit-trick steps
(:func:`~repro.algorithms.color_reduction.cv_step` as array arithmetic —
lowest differing bit via two's-complement isolation and ``frexp``) followed
by the three palette-reduction rounds that retire colours 5, 4 and 3.

Identifier-range validation mirrors the round algorithm's ``initialize``:
the first out-of-range identifier, scanned in position order row by row,
raises the same :class:`~repro.errors.AlgorithmError` the engine path would
surface at radius 0.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.algorithms.color_reduction import cv_step, free_color
from repro.errors import AlgorithmError
from repro.kernel.rules import KernelRule
from repro.topology.cycle import PREDECESSOR_PORT, SUCCESSOR_PORT

if TYPE_CHECKING:  # pragma: no cover - imports for type checkers only
    from repro.algorithms.cole_vishkin import ColeVishkinRing
    from repro.kernel.compile import CompiledInstance

Rows = Sequence[tuple[int, ...]]

#: The final reduction retires these colours, one per round.
_REDUCE_TARGETS = (5, 4, 3)


class ColeVishkinRingRule(KernelRule):
    """Batched Cole–Vishkin 3-colouring over whole identifier matrices."""

    name = "cv-ring"
    vectorized = True

    def __init__(
        self, instance: "CompiledInstance", algorithm: "ColeVishkinRing"
    ) -> None:
        self._backend = instance.backend
        self._n = instance.n
        self._id_bound = algorithm.n
        self._iterations = algorithm.cv_iterations
        commit_round = self._iterations + len(_REDUCE_TARGETS)
        # Every centre of a consistently oriented ring saturates at n // 2,
        # so the cap needs no plan table.
        self._radii_row = (min(commit_round, self._n // 2),) * self._n
        graph = instance.graph
        self._successor = tuple(
            graph.neighbors(v)[SUCCESSOR_PORT] for v in graph.positions()
        )
        self._predecessor = tuple(
            graph.neighbors(v)[PREDECESSOR_PORT] for v in graph.positions()
        )
        self._np_tables = None

    def _validate(self, rows: Rows) -> None:
        """Reject out-of-range identifiers exactly like ``initialize`` does.

        The engine path raises from the radius-0 sweep, i.e. for the first
        offending position of the first offending row; scanning rows in
        order reproduces that error for the same identifier.
        """
        bound = self._id_bound
        for row in rows:
            for identifier in row:
                if identifier >= bound:
                    raise AlgorithmError(
                        f"identifier {identifier} is outside 0..{bound - 1}; "
                        "ColeVishkinRing expects identifiers drawn from 0..n-1"
                    )

    # ------------------------------------------------------------------
    # stdlib path
    # ------------------------------------------------------------------
    def _row_outputs(self, ids) -> tuple[int, ...]:
        predecessor = self._predecessor
        successor = self._successor
        n = self._n
        colors = list(ids)
        for _ in range(self._iterations):
            colors = [cv_step(colors[v], colors[predecessor[v]]) for v in range(n)]
        for target in _REDUCE_TARGETS:
            colors = [
                free_color({colors[successor[v]], colors[predecessor[v]]})
                if colors[v] == target
                else colors[v]
                for v in range(n)
            ]
        return tuple(colors)

    # ------------------------------------------------------------------
    # numpy path
    # ------------------------------------------------------------------
    def _tables(self):
        if self._np_tables is None:
            from repro.kernel.backend import numpy_module

            np = numpy_module()
            self._np_tables = (
                np,
                np.asarray(self._successor, dtype=np.int64),
                np.asarray(self._predecessor, dtype=np.int64),
            )
        return self._np_tables

    def _batch_numpy_outputs(self, rows: Rows):
        np, successor, predecessor = self._tables()
        colors = np.asarray(rows, dtype=np.int64)
        for _ in range(self._iterations):
            other = colors[:, predecessor]
            differing = colors ^ other
            lowest = differing & -differing
            # frexp is exact on powers of two: exponent - 1 == bit index.
            _, exponent = np.frexp(lowest.astype(np.float64))
            index = exponent.astype(np.int64) - 1
            bit = (colors >> index) & 1
            colors = 2 * index + bit
        for target in _REDUCE_TARGETS:
            a = colors[:, successor]
            b = colors[:, predecessor]
            free = np.where(
                (a != 0) & (b != 0), 0, np.where((a != 1) & (b != 1), 1, 2)
            )
            colors = np.where(colors == target, free, colors)
        return colors

    # ------------------------------------------------------------------
    # KernelRule interface
    # ------------------------------------------------------------------
    def batch_radii(self, rows: Rows) -> list[tuple[int, ...]]:
        self._validate(rows)
        return [self._radii_row] * len(rows)

    def batch_radii_outputs(self, rows: Rows):
        self._validate(rows)
        radii = [self._radii_row] * len(rows)
        if self._backend == "numpy":
            outputs = self._batch_numpy_outputs(rows)
            return radii, [tuple(row) for row in outputs.tolist()]
        return radii, [self._row_outputs(ids) for ids in rows]
