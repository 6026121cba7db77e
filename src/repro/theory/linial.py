"""Linial-style lower-bound machinery.

The proof of the paper's Theorem 1 uses, as a black box, the following
corollary of Linial's lower bound: *for every algorithm that 3-colours a
cycle of length larger than n/2, there exists an identifier permutation for
which some vertex needs radius at least (1/2) log*(n/2)*.  The function
:func:`linial_lower_bound_radius` evaluates that threshold.

For completeness the module also constructs Linial's *neighbourhood graph*
``B_{t,n}`` of the directed ring — whose vertices are the possible radius-
``t`` views and whose chromatic number decides whether a ``t``-round
3-colouring algorithm can exist — together with a small exact colourability
checker usable on the tiny instances where the construction fits in memory.
Graphs here are plain adjacency dicts (``vertex -> set of neighbours``).
"""

from __future__ import annotations

import itertools
import math

from repro.errors import ConfigurationError
from repro.utils.math_functions import log_star
from repro.utils.validation import require_non_negative_int, require_positive_int


def linial_lower_bound_radius(n: int) -> int:
    """The paper's black-box threshold ``ceil((1/2) log*(n/2))`` (at least 1).

    This is the radius some vertex is forced to use by any 3-colouring
    algorithm on a cycle of length greater than ``n/2``.
    """
    require_positive_int(n, "n")
    return max(1, math.ceil(0.5 * log_star(max(2, n // 2))))


def neighborhood_graph(n: int, t: int) -> dict[tuple, set]:
    """Linial's neighbourhood graph ``B_{t,n}`` of the directed ``n``-cycle.

    Vertices are the ordered ``(2t+1)``-tuples of distinct identifiers from
    ``0..n-1`` (all possible radius-``t`` views along the ring's
    orientation); two views are adjacent when they can belong to two
    neighbouring ring vertices, i.e. when one is the other shifted by one
    position.  A ``t``-round 3-colouring algorithm exists exactly when this
    graph is 3-colourable, which is how Linial's ``Omega(log* n)`` bound is
    proved.

    The graph has ``n! / (n - 2t - 1)!`` vertices, so only small ``n`` and
    ``t`` are practical; the constructor refuses anything above ~20000
    vertices.
    """
    require_positive_int(n, "n")
    require_non_negative_int(t, "t")
    view_length = 2 * t + 1
    if view_length > n:
        raise ConfigurationError(
            f"a radius-{t} view needs {view_length} distinct identifiers, "
            f"but only {n} exist"
        )
    vertex_count = math.perm(n, view_length)
    if vertex_count > 20_000:
        raise ConfigurationError(
            f"B_(t={t}, n={n}) would have {vertex_count} vertices; "
            "refusing to build such a large neighbourhood graph"
        )
    graph: dict[tuple, set] = {
        view: set() for view in itertools.permutations(range(n), view_length)
    }
    for view in graph:
        suffix = view[1:]
        for extra in range(n):
            if extra not in view:
                neighbour = suffix + (extra,)
                graph[view].add(neighbour)
                graph[neighbour].add(view)
    return graph


def is_k_colorable(graph: dict, k: int, node_limit: int = 500) -> bool:
    """Exact ``k``-colourability by backtracking (small graphs only).

    Nodes are coloured in decreasing degree order with forward checking; the
    ``node_limit`` guard refuses graphs where exhaustive search could take
    unreasonably long.
    """
    require_positive_int(k, "k")
    nodes = sorted(graph, key=lambda v: len(graph[v]), reverse=True)
    if len(nodes) > node_limit:
        raise ConfigurationError(
            f"exact colourability limited to {node_limit} nodes, got {len(nodes)}"
        )
    coloring: dict = {}

    def backtrack(index: int) -> bool:
        if index == len(nodes):
            return True
        node = nodes[index]
        forbidden = {coloring[w] for w in graph[node] if w in coloring}
        for color in range(k):
            if color in forbidden:
                continue
            coloring[node] = color
            if backtrack(index + 1):
                return True
            del coloring[node]
        return False

    return backtrack(0)


def neighborhood_graph_chromatic_number(graph: dict, max_colors: int = 8) -> int:
    """Smallest ``k`` for which :func:`is_k_colorable` succeeds."""
    require_positive_int(max_colors, "max_colors")
    if not graph:
        return 0
    if not any(graph.values()):
        return 1
    for k in range(2, max_colors + 1):
        if is_k_colorable(graph, k):
            return k
    raise ConfigurationError(
        f"chromatic number exceeds {max_colors}; raise max_colors to continue"
    )


def greedy_chromatic_upper_bound(graph: dict) -> int:
    """Fast upper bound on the chromatic number (largest-first greedy).

    Vertices are coloured in decreasing degree order, each with the
    smallest colour none of its already coloured neighbours uses.
    """
    coloring: dict = {}
    for node in sorted(graph, key=lambda v: len(graph[v]), reverse=True):
        used = {coloring[w] for w in graph[node] if w in coloring}
        coloring[node] = next(c for c in itertools.count() if c not in used)
    return max(coloring.values(), default=-1) + 1
