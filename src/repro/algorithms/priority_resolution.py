"""Resolution of greedy-by-identifier algorithms inside a ball.

Several classic LOCAL algorithms (greedy colouring, greedy maximal
independent set) define a node's output by recursion over *higher-identifier
neighbours*: the node with the locally largest identifier decides first, and
every other node decides once all of its higher neighbours have.  A node can
therefore compute its own output as soon as its ball contains the whole
"dependency cone" of increasing-identifier paths leaving it.

:func:`resolve_by_descending_id` implements that computation once, so the
individual algorithms only supply the combination rule ("my output given my
higher neighbours' outputs").

The kernel's cone rules (:mod:`repro.kernel.cone`) run the same recursion
once per assignment row.  Two assignment-level helpers live here so the
ball-based reference and the batch form share one definition:

* :func:`resolve_assignment_row` — the full-graph, single-pass form of
  :func:`resolve_by_descending_id`: one descending-identifier sweep yields
  every node's dependency cone (as a position bitmask) and its greedy MIS
  membership.
* :func:`neighborhood_extent_table` — the assignment-independent radius at
  which a centre's ball contains all of another node's neighbours, which
  turns a cone into an output radius: a node decides at the first radius
  covering the neighbourhood of every cone member.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.model.ball import BallView

#: Combination rule: ``(node_id, {higher_neighbour_id: output}) -> output``.
CombineRule = Callable[[int, Mapping[int, Any]], Any]


def resolve_by_descending_id(ball: BallView, combine: CombineRule) -> dict[int, Any]:
    """Outputs determined *within* ``ball`` for the greedy-by-ID recursion.

    A ball member is determined when (a) all of its graph neighbours are
    visible in the ball — otherwise an unseen higher neighbour could change
    its output — and (b) every visible neighbour with a higher identifier is
    itself determined.  Members are processed in decreasing identifier order,
    which resolves the recursion in a single pass.

    Returns a mapping from identifier to output for every determined member;
    undetermined members are simply absent.
    """
    adjacency: dict[int, set[int]] = {identifier: set() for identifier in ball.ids()}
    for edge in ball.edges:
        a, b = tuple(edge)
        adjacency[a].add(b)
        adjacency[b].add(a)
    determined: dict[int, Any] = {}
    for identifier in sorted(adjacency, reverse=True):
        if len(adjacency[identifier]) != ball.degree(identifier):
            continue
        higher_neighbors = [n for n in adjacency[identifier] if n > identifier]
        if any(neighbor not in determined for neighbor in higher_neighbors):
            continue
        determined[identifier] = combine(
            identifier, {neighbor: determined[neighbor] for neighbor in higher_neighbors}
        )
    return determined


def resolve_assignment_row(
    ids: Sequence[int],
    indptr: Sequence[int],
    indices: Sequence[int],
) -> tuple[list[int], list[bool]]:
    """One descending-ID sweep over a *full* assignment row.

    The batch-kernel form of :func:`resolve_by_descending_id`: with the whole
    graph visible the recursion always terminates, and a single pass in
    decreasing identifier order yields, per position ``u``:

    * ``cones[u]`` — the dependency cone of ``u`` as a bitmask of positions
      (``u`` itself plus the cones of its higher-identifier neighbours),
      which is the same for every greedy-by-ID problem; and
    * ``in_mis[u]`` — membership in the greedy MIS (``True`` iff no higher
      neighbour joined), which the MIS-based ring colouring's radius reads.

    ``indptr``/``indices`` are the CSR adjacency of the graph in position
    space (:attr:`repro.kernel.compile.CompiledInstance.indices`).
    """
    n = len(ids)
    order = sorted(range(n), key=ids.__getitem__, reverse=True)
    cones = [0] * n
    in_mis = [False] * n
    for u in order:
        cone = 1 << u
        member = True
        own = ids[u]
        for k in range(indptr[u], indptr[u + 1]):
            w = indices[k]
            if ids[w] > own:
                cone |= cones[w]
                if in_mis[w]:
                    member = False
        cones[u] = cone
        in_mis[u] = member
    return cones, in_mis


def neighborhood_extent_table(
    indptr: Sequence[int], indices: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """``extent[v][u]``: first radius at which ``v``'s ball holds all of ``N(u)``.

    This is the assignment-independent half of the greedy-by-ID radius: node
    ``v`` outputs at the first radius whose ball contains the neighbourhood
    of every member of its dependency cone (visibility of ``N(u)`` is what
    :func:`resolve_by_descending_id` demands before determining ``u``), so
    ``radius(v) = max(extent[v][u] for u in cone(v))``.  Each row is one
    BFS of the centre over the CSR adjacency ``indptr``/``indices`` of a
    connected graph: ``extent[v][u] = max(dist(v, w) for w in N(u))``.
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


def dependency_depth(ball: BallView, identifier: int) -> int | None:
    """Length of the longest strictly-increasing-identifier path from ``identifier``.

    Only computable when the whole cone is visible; returns ``None``
    otherwise.  This is the radius (up to the +1 needed to confirm the last
    node's neighbourhood) at which the greedy-by-ID algorithms decide, and
    tests use it as an independent oracle.
    """
    cache: dict[int, int | None] = {}

    def depth(node: int) -> int | None:
        if node in cache:
            return cache[node]
        if ball.degree_inside(node) != ball.degree(node):
            cache[node] = None
            return None
        best = 0
        for neighbor in ball.neighbors_in_ball(node):
            if neighbor > node:
                sub = depth(neighbor)
                if sub is None:
                    cache[node] = None
                    return None
                best = max(best, sub + 1)
        cache[node] = best
        return best

    return depth(identifier)
