"""Cole–Vishkin rule for consistently oriented rings.

:class:`~repro.algorithms.cole_vishkin.ColeVishkinRing` commits every node at
exactly round ``R = cv_rounds_needed(n)`` (the bit-trick iterations plus
three palette-reduction rounds), so under the ball simulation
(:class:`~repro.algorithms.full_gather.BallSimulationOfRounds`) the output
radius is assignment-independent: ``min(R, n // 2)`` (a ball covering the
whole ring, at radius ``n // 2``, replays the execution to completion
early).  Every row of a batch gets that one constant radii row, on both
backends.

Identifier-range validation mirrors the round algorithm's ``initialize``:
the first out-of-range identifier, scanned in position order row by row,
raises the same :class:`~repro.errors.AlgorithmError` the engine path would
surface at radius 0.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.algorithms.cole_vishkin import ColeVishkinRing, cv_rounds_needed
from repro.errors import AlgorithmError
from repro.kernel.rules import KernelRule

if TYPE_CHECKING:  # pragma: no cover - imports for type checkers only
    from repro.kernel.compile import CompiledInstance

Rows = Sequence[tuple[int, ...]]


class ColeVishkinRingRule(KernelRule):
    """Cole–Vishkin 3-colouring: one constant radii row per assignment."""

    name = "cv-ring"
    vectorized = True

    def __init__(
        self, instance: "CompiledInstance", algorithm: ColeVishkinRing
    ) -> None:
        n = instance.n
        self._id_bound = algorithm.n
        # Every centre of a consistently oriented ring saturates at n // 2,
        # so the cap needs no plan table.
        self._radii_row = (min(cv_rounds_needed(algorithm.n), n // 2),) * n

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

    def batch_radii(self, rows: Rows) -> list[tuple[int, ...]]:
        self._validate(rows)
        return [self._radii_row] * len(rows)
