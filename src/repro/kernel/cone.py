"""Dependency-cone rules for the greedy-by-ID family.

Greedy colouring, greedy MIS and the MIS-based ring 3-colouring decide
through :func:`repro.algorithms.priority_resolution.resolve_by_descending_id`:
a node outputs once its ball holds the neighbourhood of every member of its
*dependency cone* (itself closed under edges towards higher identifiers).
The rules compute that radius from the centre's own cone, reading only the
CSR and building no frontier plan and no ``n × n`` table:

* **cycle** in ring order: with ``a(v)``, ``b(v)`` the lengths of the
  increasing runs leaving ``v`` backwards and forwards,
  ``radius(v) = min(1 + max(a(v), b(v)), n // 2)`` (numpy: prefix scans);
* **tree** (``m = n - 1``): with ``g(u) = max([deg(u) >= 2], 1 + g(x))``
  over higher neighbours ``x``, ``radius(v) = max([deg(v) >= 1], 1 + g(u))``
  over higher neighbours ``u``, one descending-identifier pass per row;
* **any other graph**: the first ball around ``v`` that holds the cone's
  neighbourhoods (:func:`~repro.algorithms.priority_resolution.resolve_assignment_row`),
  each centre's balls grown only as far as some row needs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.algorithms.priority_resolution import resolve_assignment_row
from repro.errors import TopologyError
from repro.kernel.rules import Rows, ScaleRule, csr_is_ring

if TYPE_CHECKING:  # pragma: no cover - imports for type checkers only
    from repro.kernel.compile import CompiledInstance


def _runs_python(ids: Sequence[int]) -> tuple[list[int], list[int]]:
    """Run lengths ``(a, b)`` of one ring row, scanned from its maximum."""
    n, top = len(ids), max(range(len(ids)), key=ids.__getitem__)
    a, b = [0] * n, [0] * n
    for step in range(1, n):
        x, y = (top + step) % n, (top - step) % n
        a[x] = a[x - 1] + 1 if ids[x - 1] > ids[x] else 0
        b[y] = b[(y + 1) % n] + 1 if ids[(y + 1) % n] > ids[y] else 0
    return a, b


def _runs_numpy(np, ids):
    """Run lengths of a ``(rows, n)`` ring block: the distance to the next
    descent (a suffix minimum) and back to the last ascent (a prefix maximum)."""
    n = ids.shape[1]
    index = np.arange(n)
    ahead = np.where(np.roll(ids, -1, axis=1) > ids, 2 * n, index)
    ahead = np.minimum.accumulate(ahead[:, ::-1], axis=1)[:, ::-1]
    ahead = np.where(ahead == 2 * n, ahead[:, :1] + n, ahead)
    behind = np.where(np.roll(ids, 1, axis=1) > ids, -1, index)
    behind = np.maximum.accumulate(behind, axis=1)
    behind = np.where(behind < 0, behind[:, -1:] - n, behind)
    return index - behind, ahead - index


class GreedyConeRule(ScaleRule):
    """Greedy colouring / greedy MIS by descending identifier.

    The cones do not depend on the combination rule, so both problems share
    one evaluation; ``problem`` only names the rule.
    """

    #: Ball-mask bits kept between rows (32 MiB); past it the cache starts over.
    BALL_BITS = 1 << 28

    def __init__(self, instance: "CompiledInstance", problem: str) -> None:
        if problem not in ("coloring", "mis"):
            raise ValueError(f"unknown greedy-by-ID problem {problem!r}")
        super().__init__(instance.n, instance.backend)
        self.name = f"greedy-cone-{problem}"
        self._indptr, self._indices = indptr, indices = instance.indptr, instance.indices
        self._ring = csr_is_ring(indptr, indices)
        self._tree = not self._ring and len(indices) == 2 * (self._n - 1)
        self._masks = [] if self._ring or self._tree else [
            sum(1 << w for w in indices[indptr[v] : indptr[v + 1]]) for v in range(self._n)
        ]
        self._balls: dict[int, list[int]] = {}
        self._ball_bits = 0

    def _sweep_numpy(self, np, ids):
        if self._ring:
            return self._ring_numpy(np, *_runs_numpy(np, ids))
        return np.array(self._block_python(ids.tolist()), dtype=np.int64)

    def _block_python(self, rows: Rows) -> list[list[int]]:
        if self._ring:
            return [self._ring_python(*_runs_python(ids)) for ids in rows]
        row_radii = self._tree_python if self._tree else self._ball_python
        return [row_radii(ids) for ids in rows]

    def _ring_numpy(self, np, a, b):
        return np.minimum(np.maximum(a, b) + 1, self._n // 2)

    def _ring_python(self, a: list[int], b: list[int]) -> list[int]:
        return [min(max(left, right) + 1, self._n // 2) for left, right in zip(a, b)]

    def _tree_python(self, ids: Sequence[int]) -> list[int]:
        indptr, indices = self._indptr, self._indices
        g, radii = [0] * self._n, [0] * self._n
        for u in sorted(range(self._n), key=ids.__getitem__, reverse=True):
            reach = 0
            for k in range(indptr[u], indptr[u + 1]):
                x = indices[k]
                if ids[x] > ids[u] and g[x] >= reach:
                    reach = g[x] + 1
            # The floors: the centre waits for its neighbours, and a cone
            # member of degree >= 2 for a neighbour one step farther out.
            degree = indptr[u + 1] - indptr[u]
            g[u], radii[u] = max(reach, int(degree >= 2)), max(reach, int(degree >= 1))
        return radii

    def _ball_python(self, ids: Sequence[int]) -> list[int]:
        needs = resolve_assignment_row(ids, self._indptr, self._indices, self._masks)
        return [self._cover_radius(v, need) for v, need in enumerate(needs)]

    def _cover_radius(self, center: int, need: int) -> int:
        """The first radius whose ball around ``center`` holds ``need``
        (``balls[r + 1]`` is the ball of radius ``r``)."""
        if center not in self._balls and self._ball_bits > self.BALL_BITS:
            self._balls, self._ball_bits = {}, 0
        balls = self._balls.setdefault(center, [0, 1 << center])
        radius = 1
        while need & ~balls[radius]:
            radius += 1
            if radius == len(balls):
                grown, layer = balls[-1], balls[-1] ^ balls[-2]
                while layer:
                    low = layer & -layer
                    grown |= self._masks[low.bit_length() - 1]
                    layer ^= low
                if grown == balls[-1]:
                    raise TopologyError("the cone rules require a connected graph")
                balls.append(grown)
                self._ball_bits += self._n
        return radius - 1


class RingMISConeRule(GreedyConeRule):
    """MIS-based ring 3-colouring on a cycle in ring order, from the same runs.

    ``v`` joins the greedy MIS iff ``a(v)`` and ``b(v)`` are even (membership
    alternates down a run from its peak) and then decides with its own cone.
    A non-member waits for both neighbours' cones too, which reach
    ``1 + a(v - 1)`` and ``1 + b(v + 1)`` steps out.
    """

    def __init__(self, instance: "CompiledInstance") -> None:
        super().__init__(instance, "mis")
        self.name = "ring-mis-cone"

    def _ring_numpy(self, np, a, b):
        spread = np.maximum(np.roll(a, 1, axis=1), np.roll(b, -1, axis=1))
        other = np.minimum(spread + 2, self._n // 2)
        return np.where((a | b) & 1, other, super()._ring_numpy(np, a, b))

    def _ring_python(self, a: list[int], b: list[int]) -> list[int]:
        n, member = self._n, super()._ring_python(a, b)
        return [
            min(max(a[x - 1], b[(x + 1) % n]) + 2, n // 2) if (a[x] | b[x]) & 1 else member[x]
            for x in range(n)
        ]
