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

The kernel's cone rules (:mod:`repro.kernel.cone`) compute the same radii
per assignment row; off cycles and trees they read the cones from
:func:`resolve_assignment_row`, the full-graph, single-pass form of
:func:`resolve_by_descending_id`.
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
    masks: Sequence[int],
) -> list[int]:
    """One descending-ID sweep over a *full* assignment row.

    The batch-kernel form of :func:`resolve_by_descending_id`: with the whole
    graph visible, one pass in decreasing identifier order yields, per
    position ``u``, the union of ``masks[w]`` over the dependency cone of
    ``u`` (``u`` plus the cones of its higher-identifier neighbours).  With
    ``masks[u] = 1 << u`` that is the cone; with neighbourhood masks, the
    set a ball must hold before ``u`` decides.

    ``indptr``/``indices`` are the CSR adjacency of the graph in position
    space (:attr:`repro.kernel.compile.CompiledInstance.indices`).
    """
    n = len(ids)
    order = sorted(range(n), key=ids.__getitem__, reverse=True)
    cones = [0] * n
    for u in order:
        cone = masks[u]
        own = ids[u]
        for k in range(indptr[u], indptr[u + 1]):
            w = indices[k]
            if ids[w] > own:
                cone |= cones[w]
        cones[u] = cone
    return cones


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
