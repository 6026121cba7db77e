"""The extent-table oracle for the greedy-by-ID cone rules.

The cone rules used to evaluate every row through an assignment-independent
table ``extent[v][u]`` (the first radius at which ``v``'s ball holds all of
``N(u)``, one BFS per centre) and per-row cone bitmasks from one
descending-identifier sweep: ``radius(v) = max(extent[v][u] for u in
cone(v))``.  That form is quadratic in ``n`` per instance and per row, so it
lives here, as the reference the rules of :mod:`repro.kernel.cone` must
match radius for radius.
"""

from __future__ import annotations

from typing import Sequence


def neighborhood_extent_table(
    indptr: Sequence[int], indices: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """``extent[v][u]``: first radius at which ``v``'s ball holds all of ``N(u)``.

    Each row is one BFS of the centre over the CSR adjacency of a connected
    graph: ``extent[v][u] = max(dist(v, w) for w in N(u))``.
    """
    n = len(indptr) - 1
    table = []
    for v in range(n):
        dist_v = [-1] * n
        dist_v[v] = 0
        frontier = [v]
        depth = 0
        while frontier:
            depth += 1
            layer = []
            for u in frontier:
                for k in range(indptr[u], indptr[u + 1]):
                    w = indices[k]
                    if dist_v[w] < 0:
                        dist_v[w] = depth
                        layer.append(w)
            frontier = layer
        row = []
        for u in range(n):
            extent = 0
            for k in range(indptr[u], indptr[u + 1]):
                d = dist_v[indices[k]]
                if d > extent:
                    extent = d
            row.append(extent)
        table.append(tuple(row))
    return tuple(table)


def cones_and_mis(
    ids: Sequence[int], indptr: Sequence[int], indices: Sequence[int]
) -> tuple[list[int], list[bool]]:
    """Every position's cone bitmask and greedy MIS membership (one sweep)."""
    n = len(ids)
    cones = [0] * n
    in_mis = [False] * n
    for u in sorted(range(n), key=ids.__getitem__, reverse=True):
        cone = 1 << u
        member = True
        for k in range(indptr[u], indptr[u + 1]):
            w = indices[k]
            if ids[w] > ids[u]:
                cone |= cones[w]
                if in_mis[w]:
                    member = False
        cones[u] = cone
        in_mis[u] = member
    return cones, in_mis


def _mask_extent(mask: int, extent_row: Sequence[int]) -> int:
    """Largest ``extent_row`` entry over the set bits of ``mask``."""
    best = 0
    while mask:
        low = mask & -mask
        best = max(best, extent_row[low.bit_length() - 1])
        mask ^= low
    return best


class ExtentOracle:
    """Greedy and ring-MIS radii of one CSR graph, through the extent table."""

    def __init__(self, indptr: Sequence[int], indices: Sequence[int]) -> None:
        self.indptr, self.indices = list(indptr), list(indices)
        self.n = len(indptr) - 1
        self.extent = neighborhood_extent_table(self.indptr, self.indices)

    def greedy_radii(self, ids: Sequence[int]) -> tuple[int, ...]:
        cones, _ = cones_and_mis(ids, self.indptr, self.indices)
        return tuple(_mask_extent(cones[v], self.extent[v]) for v in range(self.n))

    def ring_mis_radii(self, ids: Sequence[int]) -> tuple[int, ...]:
        """A member waits for its cone, a non-member for its two neighbours' too."""
        cones, in_mis = cones_and_mis(ids, self.indptr, self.indices)
        radii = []
        for v in range(self.n):
            mask = cones[v]
            if not in_mis[v]:
                for k in range(self.indptr[v], self.indptr[v + 1]):
                    mask |= cones[self.indices[k]]
            radii.append(_mask_extent(mask, self.extent[v]))
        return tuple(radii)
