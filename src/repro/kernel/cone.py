"""Dependency-cone rules for the greedy-by-ID family.

The greedy-by-ID algorithms (greedy colouring, greedy MIS, and the MIS-based
ring 3-colouring built on top of them) all decide through
:func:`repro.algorithms.priority_resolution.resolve_by_descending_id`: a node
outputs once its ball contains its whole *dependency cone* — the closure of
itself under edges towards strictly higher identifiers — together with every
cone member's neighbourhood.  That characterisation turns the per-ball
recursion into two ingredients:

* an assignment-independent table ``extent[v][u]`` (the first radius at which
  ``v`` sees all of ``u``'s neighbours, computed once per instance from the
  CSR by :func:`~repro.algorithms.priority_resolution.neighborhood_extent_table`);
* a per-row cone computation: ``radius(v) = max(extent[v][u] for u in
  cone(v))``, with every cone a position bitmask from one
  descending-identifier sweep
  (:func:`~repro.algorithms.priority_resolution.resolve_assignment_row`).

Both read only the instance's CSR adjacency, so the rules build no frontier
plan, and both backends run the same stdlib sweep: it costs ``O(n + m)``
bitmask operations per row where a dense closure of the higher-identifier
relation would cost ``O(n^3)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.algorithms.priority_resolution import (
    neighborhood_extent_table,
    resolve_assignment_row,
)
from repro.kernel.rules import KernelRule

if TYPE_CHECKING:  # pragma: no cover - imports for type checkers only
    from repro.kernel.compile import CompiledInstance

Rows = Sequence[tuple[int, ...]]


def _mask_extent(mask: int, extent_row: Sequence[int]) -> int:
    """Largest ``extent_row`` entry over the set bits of ``mask``."""
    best = 0
    while mask:
        low = mask & -mask
        value = extent_row[low.bit_length() - 1]
        if value > best:
            best = value
        mask ^= low
    return best


class _ConeRule(KernelRule):
    """Shared machinery of the dependency-cone rules."""

    vectorized = True

    def __init__(self, instance: "CompiledInstance") -> None:
        self._n = instance.n
        self._indptr = instance.indptr
        self._indices = instance.indices
        self._extent = neighborhood_extent_table(self._indptr, self._indices)


class GreedyConeRule(_ConeRule):
    """Greedy colouring / greedy MIS by descending identifier.

    ``radius(v)`` is the largest neighbourhood extent over ``v``'s dependency
    cone.  The cones do not depend on the combination rule, so both problems
    share one evaluation; ``problem`` only names the rule.
    """

    def __init__(self, instance: "CompiledInstance", problem: str) -> None:
        super().__init__(instance)
        if problem not in ("coloring", "mis"):
            raise ValueError(f"unknown greedy-by-ID problem {problem!r}")
        self.name = f"greedy-cone-{problem}"

    def batch_radii(self, rows: Rows) -> list[tuple[int, ...]]:
        extent = self._extent
        radii = []
        for ids in rows:
            cones, _ = resolve_assignment_row(ids, self._indptr, self._indices)
            radii.append(
                tuple(_mask_extent(cones[v], extent[v]) for v in range(self._n))
            )
        return radii


class RingMISConeRule(_ConeRule):
    """MIS-based ring 3-colouring.

    A member of the greedy MIS outputs once its own cone is visible; a
    non-member additionally waits for both ring neighbours' membership, so
    its radius spans the union of the three cones (see
    :class:`~repro.algorithms.ring_coloring_via_mis.RingColoringViaMIS`).
    """

    name = "ring-mis-cone"

    def __init__(self, instance: "CompiledInstance") -> None:
        super().__init__(instance)
        # On a cycle every position has exactly two neighbours.
        self._left = tuple(self._indices[self._indptr[v]] for v in range(self._n))
        self._right = tuple(
            self._indices[self._indptr[v] + 1] for v in range(self._n)
        )

    def batch_radii(self, rows: Rows) -> list[tuple[int, ...]]:
        extent, left, right = self._extent, self._left, self._right
        radii = []
        for ids in rows:
            cones, in_mis = resolve_assignment_row(ids, self._indptr, self._indices)
            radii.append(
                tuple(
                    _mask_extent(
                        cones[v]
                        if in_mis[v]
                        else cones[v] | cones[left[v]] | cones[right[v]],
                        extent[v],
                    )
                    for v in range(self._n)
                )
            )
        return radii
