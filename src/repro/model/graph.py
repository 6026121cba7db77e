"""Port-numbered graphs.

The LOCAL model runs on a simple, connected, undirected graph whose nodes are
anonymous *positions* ``0 .. n-1``; identities are supplied separately by an
:class:`~repro.model.identifiers.IdentifierAssignment`.  Each node orders its
incident edges with *port numbers* ``0 .. deg(v)-1``; algorithms may only
refer to neighbours through ports, never through global positions.

The class below is a thin, validated adjacency-list structure with the graph
queries the simulators need (BFS balls, distances, eccentricities).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Optional, Sequence

from repro.errors import TopologyError
from repro.utils.validation import require_non_negative_int


class Graph:
    """An undirected, simple, port-numbered graph on positions ``0..n-1``.

    Parameters
    ----------
    adjacency:
        ``adjacency[v]`` is the sequence of neighbours of ``v`` in port
        order; ``adjacency[v][p]`` is the position reached through port ``p``
        of ``v``.  The structure must be symmetric (if ``u`` lists ``v`` then
        ``v`` lists ``u``), without self-loops or repeated neighbours.
    name:
        Optional human-readable label (used in experiment tables).
    """

    def __init__(self, adjacency: Sequence[Sequence[int]], name: str = "graph") -> None:
        self._adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(neighbours) for neighbours in adjacency
        )
        self.name = name
        self._validate()
        self._distance_cache: dict[int, dict[int, int]] = {}
        self._csr: Optional[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]] = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]], name: str = "graph") -> "Graph":
        """Build a graph on ``n`` positions from an edge list.

        Ports are assigned in the order edges are listed, which makes the
        construction deterministic for a fixed edge ordering.
        """
        require_non_negative_int(n, "n")
        adjacency: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise TopologyError(f"edge ({u}, {v}) references a position outside 0..{n - 1}")
            if u == v:
                raise TopologyError(f"self-loop at position {u} is not allowed")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise TopologyError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            adjacency[u].append(v)
            adjacency[v].append(u)
        return cls(adjacency, name=name)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        n = len(self._adjacency)
        for v, neighbours in enumerate(self._adjacency):
            if len(set(neighbours)) != len(neighbours):
                raise TopologyError(f"position {v} lists a neighbour twice")
            for u in neighbours:
                if not isinstance(u, int) or not 0 <= u < n:
                    raise TopologyError(f"position {v} lists invalid neighbour {u!r}")
                if u == v:
                    raise TopologyError(f"self-loop at position {v}")
                if v not in self._adjacency[u]:
                    raise TopologyError(
                        f"asymmetric adjacency: {v} lists {u} but {u} does not list {v}"
                    )

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of positions."""
        return len(self._adjacency)

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(len(neighbours) for neighbours in self._adjacency) // 2

    def positions(self) -> range:
        """All positions, ``0..n-1``."""
        return range(self.n)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbours of ``v`` in port order."""
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        """Degree of position ``v``."""
        return len(self._adjacency[v])

    def max_degree(self) -> int:
        """Maximum degree over all positions (0 for the empty graph)."""
        return max((self.degree(v) for v in self.positions()), default=0)

    def port_to(self, v: int, u: int) -> int:
        """Port number through which ``v`` reaches its neighbour ``u``."""
        try:
            return self._adjacency[v].index(u)
        except ValueError as exc:
            raise TopologyError(f"{u} is not a neighbour of {v}") from exc

    def csr(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """The flat form ``(indptr, indices, reverse)`` of the graph (cached).

        The neighbours of ``v`` are ``indices[indptr[v]:indptr[v + 1]]`` in
        port order, so the entry at offset ``k`` of that row leaves ``v``
        through port ``k - indptr[v]``; ``reverse[k]`` is the port through
        which that neighbour reaches ``v`` back.  The frontier plans of the
        engine and the batch kernel both read this one structure.
        """
        if self._csr is None:
            indptr = [0]
            indices: list[int] = []
            reverse: list[int] = []
            adjacency = self._adjacency
            for v, neighbours in enumerate(adjacency):
                indices.extend(neighbours)
                reverse.extend(adjacency[u].index(v) for u in neighbours)
                indptr.append(len(indices))
            self._csr = (tuple(indptr), tuple(indices), tuple(reverse))
        return self._csr

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over edges as ordered pairs ``(u, v)`` with ``u < v``."""
        for v in self.positions():
            for u in self._adjacency[v]:
                if v < u:
                    yield (v, u)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether positions ``u`` and ``v`` are adjacent."""
        return v in self._adjacency[u]

    # ------------------------------------------------------------------
    # distances and balls
    # ------------------------------------------------------------------
    def distances_from(self, v: int) -> dict[int, int]:
        """BFS distances from ``v`` to every reachable position (cached)."""
        cached = self._distance_cache.get(v)
        if cached is not None:
            return cached
        dist = {v: 0}
        queue: deque[int] = deque([v])
        while queue:
            current = queue.popleft()
            for neighbour in self._adjacency[current]:
                if neighbour not in dist:
                    dist[neighbour] = dist[current] + 1
                    queue.append(neighbour)
        self._distance_cache[v] = dist
        return dist

    def distance(self, u: int, v: int) -> int:
        """Shortest-path distance between ``u`` and ``v``.

        Raises :class:`TopologyError` when ``v`` is unreachable from ``u``.
        """
        dist = self.distances_from(u).get(v)
        if dist is None:
            raise TopologyError(f"position {v} is unreachable from {u}")
        return dist

    def ball_positions(self, v: int, radius: int) -> dict[int, int]:
        """Positions within distance ``radius`` of ``v`` mapped to distances."""
        require_non_negative_int(radius, "radius")
        return {u: d for u, d in self.distances_from(v).items() if d <= radius}

    def eccentricity(self, v: int) -> int:
        """Largest distance from ``v`` to any reachable position."""
        return max(self.distances_from(v).values())

    def diameter(self) -> int:
        """Largest eccentricity; raises on a disconnected graph."""
        if not self.is_connected():
            raise TopologyError("diameter is undefined on a disconnected graph")
        return max(self.eccentricity(v) for v in self.positions())

    def is_connected(self) -> bool:
        """Whether every position is reachable from position 0."""
        if self.n == 0:
            return True
        return len(self.distances_from(0)) == self.n

    # ------------------------------------------------------------------
    # structural predicates used by cycle/path-specific algorithms
    # ------------------------------------------------------------------
    def is_cycle(self) -> bool:
        """Whether the graph is a single cycle (n >= 3, connected, 2-regular)."""
        return (
            self.n >= 3
            and self.is_connected()
            and all(self.degree(v) == 2 for v in self.positions())
        )

    def is_complete(self) -> bool:
        """Whether every pair of distinct positions is adjacent.

        Complete graphs are special-cased by the symmetry machinery of
        :mod:`repro.search.automorphisms`: their adjacency automorphism
        group is all of ``S_n``, so exact adversary searches collapse to a
        single canonical identifier assignment.
        """
        return all(self.degree(v) == self.n - 1 for v in self.positions())

    def is_path(self) -> bool:
        """Whether the graph is a single simple path (n >= 1)."""
        if self.n == 0 or not self.is_connected():
            return False
        if self.n == 1:
            return True
        degrees = sorted(self.degree(v) for v in self.positions())
        return degrees[:2] == [1, 1] and all(d == 2 for d in degrees[2:])

    # ------------------------------------------------------------------
    # dunder methods
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adjacency == other._adjacency

    def __hash__(self) -> int:
        return hash(self._adjacency)

    def __repr__(self) -> str:
        return f"Graph(name={self.name!r}, n={self.n}, m={self.m})"
