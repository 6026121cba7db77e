"""Incremental, round-synchronised execution of ball algorithms.

The legacy runner (:mod:`repro.core.runner`) re-extracts every ball from
scratch for each ``(node, radius)`` pair: growing a node from radius ``r`` to
``r + 1`` filters the full distance map again and rescans every member's
adjacency.  The engine exploits a simple observation: on a fixed graph the
*structure* of every ball — which positions join at which radius, which
edges appear, through which ports — is completely independent of the
identifier assignment.  A :class:`FrontierRunner` session therefore computes
one **frontier plan** per centre (the BFS layers with their edges and ports,
read from the graph's CSR) and reuses it across every assignment it
executes: a single run only translates plan positions into identifiers, and
all undecided nodes advance round by round in one synchronised pass, exactly
like the LOCAL model itself.  Plans grow one layer at a time, only as deep
as some run reads them, so a run costs the sum of the nodes' radii — the
average measure — rather than the sum of their eccentricities.

The plans also make decision memoisation cheap.  Each ``(centre, radius)``
pair gets an interned **structural key** (computed once per session); the
per-run part of a cache key is then just the identifier pattern of the
ball's members in discovery order — ``O(ball)`` work with no sorting of
edges or ports.  With a :class:`~repro.engine.cache.DecisionCache` attached,
a cache hit skips both the ball-view construction and ``algorithm.decide``.

The produced :class:`~repro.model.trace.ExecutionTrace` is identical to the
legacy runner's, a property enforced by
``tests/property/test_property_engine.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.engine.cache import MISSING, DecisionCache
from repro.errors import AlgorithmError, TopologyError
from repro.model.ball import BallView
from repro.model.graph import Graph
from repro.model.identifiers import IdentifierAssignment
from repro.model.trace import ExecutionTrace, NodeRecord
from repro.obs import metrics as _metrics

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.core.algorithm import BallAlgorithm


class _CenterPlan:
    """The assignment-independent BFS structure of one centre's balls.

    ``discovery`` lists the ball members in a canonical discovery order
    (layer by layer, adjacency-scan order within a layer); ``member_counts[r]``
    and ``edge_counts[r]`` are the prefix lengths covering radius ``r``, so
    the radius-``r`` ball is always a *prefix* of the discovery and edge
    streams — growing a ball is mere prefix extension.

    The plan grows one BFS layer at a time, only as deep as a caller reads
    (:meth:`ensure`): a run pays each node's own radius, not its
    eccentricity.  ``eccentricity`` stays ``None`` until a layer adds no one.
    """

    __slots__ = (
        "center",
        "discovery",
        "distances",
        "member_counts",
        "edges",
        "edge_counts",
        "layer_streams",
        "eccentricity",
        "_csr",
        "_frontier",
        "_index_of",
        "_prefixes",
    )

    def __init__(
        self,
        center: int,
        csr: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]],
    ) -> None:
        indptr = csr[0]
        self.center = center
        self.discovery = [center]
        self.distances = [0]
        # Edge stream: (position_a, position_b, port_a_to_b, port_b_to_a),
        # emitted by the later-discovered endpoint, so each edge appears once.
        self.edges: list[tuple[int, int, int, int]] = []
        self.member_counts = [1]
        self.edge_counts = [0]
        # Structural layer streams: per new member, its full-graph degree and
        # its edges to earlier-discovered members as (earlier_index, ports).
        # Identical streams <=> structurally indistinguishable growth.
        self.layer_streams: list[tuple] = [((indptr[center + 1] - indptr[center],),)]
        self.eccentricity: Optional[int] = None
        self._csr = csr
        self._frontier = [center]
        self._index_of: dict[int, Optional[int]] = {center: 0}
        self._prefixes: list[tuple[int, ...]] = []

    def ensure(self, radius: int) -> int:
        """Grow the plan to cover ``radius``; return the deepest layer held.

        The returned depth is ``min(radius, eccentricity)``: past the
        eccentricity the ball no longer changes.
        """
        member_counts = self.member_counts
        while len(member_counts) <= radius and self.eccentricity is None:
            self._grow()
        return radius if radius < len(member_counts) else len(member_counts) - 1

    def _grow(self) -> None:
        """Add the next BFS layer, or record the eccentricity if it is empty."""
        indptr, indices, reverse = self._csr
        index_of = self._index_of
        new_positions: list[int] = []
        for u in self._frontier:
            for v in indices[indptr[u] : indptr[u + 1]]:
                if v not in index_of:
                    # Seen but not yet processed: ``index_of.get`` below
                    # answers None for it, so during a layer's scan only
                    # earlier-processed members count as earlier.
                    index_of[v] = None
                    new_positions.append(v)
        radius = len(self.member_counts)
        if not new_positions:
            self.eccentricity = radius - 1
            self._frontier = self._index_of = None
            return
        discovery, edges = self.discovery, self.edges
        stream: list[tuple] = []
        for v in new_positions:
            row = indptr[v]
            member_edges: list[tuple[int, int, int]] = []
            for k in range(row, indptr[v + 1]):
                u = indices[k]
                earlier = index_of.get(u)
                if earlier is not None:
                    edges.append((v, u, k - row, reverse[k]))
                    member_edges.append((earlier, k - row, reverse[k]))
            index_of[v] = len(discovery)
            discovery.append(v)
            self.distances.append(radius)
            stream.append((indptr[v + 1] - row, tuple(member_edges)))
        self.member_counts.append(len(discovery))
        self.edge_counts.append(len(edges))
        self.layer_streams.append(tuple(stream))
        self._frontier = new_positions

    def prefix(self, radius: int) -> tuple[int, ...]:
        """Members of the radius-``radius`` ball, in discovery order (cached)."""
        bounded = self.ensure(radius)
        prefixes = self._prefixes
        while len(prefixes) <= bounded:
            prefixes.append(tuple(self.discovery[: self.member_counts[len(prefixes)]]))
        return prefixes[bounded]



def center_plan(graph: Graph, center: int) -> _CenterPlan:
    """The (cached) frontier plan of ``center`` on ``graph``.

    The single construction point for :class:`_CenterPlan` objects:
    :meth:`FrontierRunner._plan` resolves plans here.  Plans are pure graph
    structure, so they are cached *on the graph object* and shared by every
    session (and every algorithm) that touches it; they read the graph's
    one CSR (:meth:`Graph.csr <repro.model.graph.Graph.csr>`).  The batch
    kernel's vectorised rules build none.
    """
    plans = getattr(graph, "_frontier_plans", None)
    if plans is None:
        plans = graph._frontier_plans = {}  # type: ignore[attr-defined]
    plan = plans.get(center)
    if plan is None:
        plan = plans[center] = _CenterPlan(center, graph.csr())
    return plan


class FrontierRunner:
    """Fast execution session for one ``(graph, algorithm)`` pair.

    Parameters
    ----------
    graph, algorithm:
        The fixed part of the instance.  Connectivity and
        ``algorithm.supports_graph`` are checked once at construction
        (disable with ``validate=False`` when the caller already did).
    cache:
        Optional :class:`DecisionCache`; must be bound to ``algorithm``.
        With a cache, structurally repeated balls skip both the view
        construction and ``decide``.
    max_radius:
        Optional hard cap on the radius explored per node.  Defaults to one
        more than the node's eccentricity, like the legacy runner.
    """

    def __init__(
        self,
        graph: Graph,
        algorithm: "BallAlgorithm",
        cache: Optional[DecisionCache] = None,
        max_radius: Optional[int] = None,
        validate: bool = True,
    ) -> None:
        if cache is not None:
            if cache.algorithm is not algorithm:
                raise AlgorithmError(
                    "the DecisionCache is bound to a different algorithm instance; "
                    "decisions would be attributed across algorithms"
                )
            try:
                cache.bind_session(self)
            except ValueError as exc:
                raise AlgorithmError(str(exc)) from exc
        if validate:
            if not graph.is_connected():
                raise TopologyError("the LOCAL simulators require a connected graph")
            if not algorithm.supports_graph(graph):
                raise TopologyError(
                    f"algorithm {algorithm.name!r} does not support graph {graph.name!r}"
                )
        self.graph = graph
        self.algorithm = algorithm
        self.cache = cache
        self.max_radius = max_radius
        # Frontier plans grow on demand and are cached on the graph, so every
        # session (and every algorithm) on it shares them; degrees come from
        # the same CSR the plans read.
        self._indptr = graph.csr()[0]
        self._node_plans: Optional[list[_CenterPlan]] = None
        # Interning table for structural keys: same small integer <=> same
        # structural growth history, across centres and radii.  Per session,
        # because the interned ids are only meaningful relative to one table.
        self._intern: dict[tuple, int] = {}
        self._struct_ids: dict[int, list[int]] = {}
        # Fused per-(centre, radius) cache-key parts: (struct_id, prefix),
        # indexable straight from the hot loop.
        self._key_parts: dict[int, list[tuple[int, tuple[int, ...]]]] = {}

    # ------------------------------------------------------------------
    # plans and structural keys
    # ------------------------------------------------------------------
    def _plan(self, center: int) -> _CenterPlan:
        return center_plan(self.graph, center)

    def _struct_id(self, plan: _CenterPlan, radius: int) -> int:
        """Interned structural key of ``plan``'s radius-``radius`` ball.

        Chained interning: the key at radius ``r`` is the interned pair of
        the key at ``r - 1`` and the layer-``r`` stream, so equality of keys
        implies equality of the whole growth history *including the radius*
        (saturated balls keep extending the chain with empty layers).
        """
        struct_ids = self._struct_ids.get(plan.center)
        if struct_ids is None:
            struct_ids = self._struct_ids[plan.center] = []
        intern = self._intern
        while len(struct_ids) <= radius:
            depth = len(struct_ids)
            if depth == 0:
                key: tuple = ("root", plan.layer_streams[0])
            else:
                stream = plan.layer_streams[depth] if plan.ensure(depth) == depth else ()
                key = (struct_ids[depth - 1], stream)
            struct_ids.append(intern.setdefault(key, len(intern)))
        return struct_ids[radius]

    # ------------------------------------------------------------------
    # radius caps and cache keys
    # ------------------------------------------------------------------
    def _cap(self, plan: _CenterPlan) -> Optional[int]:
        """Radius cap of ``plan``'s centre, or ``None`` while still unknown.

        Legacy semantics: ``max_radius``, else eccentricity + 1.  The
        eccentricity is known once the plan has been asked for a radius past
        it, which the runs do before they test the cap.
        """
        if self.max_radius is not None:
            return self.max_radius
        if plan.eccentricity is None:
            return None
        return plan.eccentricity + 1

    def _key_parts_for(
        self, plan: _CenterPlan, radius: int
    ) -> list[tuple[int, tuple[int, ...]]]:
        """Per-centre list of ``(struct_id, member prefix)`` up to ``radius``.

        The hot loop indexes this list directly; it is extended on demand and
        lives for the whole session, so the Python-level assembly of cache
        keys runs once per ``(centre, radius)``, not once per decision.
        """
        parts = self._key_parts.get(plan.center)
        if parts is None:
            parts = self._key_parts[plan.center] = []
        while len(parts) <= radius:
            depth = len(parts)
            parts.append((self._struct_id(plan, depth), plan.prefix(depth)))
        return parts

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, ids: IdentifierAssignment) -> ExecutionTrace:
        """Execute the algorithm under ``ids`` and return its trace."""
        graph = self.graph
        if ids.n != graph.n:
            raise TopologyError(
                f"identifier assignment covers {ids.n} positions but graph has {graph.n}"
            )
        identifiers = ids.identifiers()
        indptr = self._indptr
        n = graph.n
        records: dict[int, NodeRecord] = {}
        exhausted: list[int] = []
        if self._node_plans is None:
            self._node_plans = [self._plan(position) for position in graph.positions()]
        # Per-node run state for the uncached/miss path: live ball dicts grown
        # lazily by layer deltas (never rebuilt per radius) and only allocated
        # on the first cache miss.  The views handed to ``decide`` share these
        # dicts — sound because algorithms are pure functions of the view
        # that must not retain it across calls.
        # Entry: [position, plan, built_content_radius, dist, deg, edges,
        # ports, key_parts] with built_content_radius == -1 while the state
        # is unallocated.
        with_cache = self.cache is not None
        active = [
            [
                position,
                plan,
                -1,
                None,
                None,
                None,
                None,
                self._key_parts_for(plan, 0) if with_cache else None,
            ]
            for position, plan in enumerate(self._node_plans)
        ]
        cache = self.cache
        decide = self.algorithm.decide
        # The synchronised sweep below is the hottest loop of the library, so
        # the cache bookkeeping is inlined (stats are flushed in bulk).
        table = cache._table if cache is not None else None
        relabel = cache.relabel_ids if cache is not None else False
        limit = cache.pattern_limit if cache is not None else None
        hits = misses = 0
        radius = 0
        while active:
            still_active = []
            for entry in active:
                position, plan = entry[0], entry[1]
                member_counts = plan.member_counts
                # Plans grow only as deep as the run reads them.
                content = radius if radius < len(member_counts) else plan.ensure(radius)
                members = member_counts[content]
                output = MISSING
                key = None
                if table is not None and (limit is None or members <= limit):
                    parts = entry[7]
                    if len(parts) <= radius:
                        self._key_parts_for(plan, radius)
                    struct_id, prefix = parts[radius]
                    pattern = tuple(map(identifiers.__getitem__, prefix))
                    if relabel:
                        pattern = tuple(
                            sorted(range(members), key=pattern.__getitem__)
                        )
                    key = (struct_id, pattern)
                    output = table.get(key, MISSING)
                if output is MISSING:
                    built = entry[2]
                    if built < 0:
                        identifier = identifiers[position]
                        entry[2] = built = 0
                        entry[3] = {identifier: 0}
                        entry[4] = {identifier: indptr[position + 1] - indptr[position]}
                        entry[5] = set()
                        entry[6] = {}
                    if built < content:
                        # Apply the pending layer deltas to the live dicts.
                        dist, degd, edges, ports = entry[3], entry[4], entry[5], entry[6]
                        discovery = plan.discovery
                        distances = plan.distances
                        for index in range(member_counts[built], members):
                            member = discovery[index]
                            member_id = identifiers[member]
                            dist[member_id] = distances[index]
                            degd[member_id] = indptr[member + 1] - indptr[member]
                        edge_counts = plan.edge_counts
                        for a, b, port_ab, port_ba in plan.edges[
                            edge_counts[built] : edge_counts[content]
                        ]:
                            id_a, id_b = identifiers[a], identifiers[b]
                            edges.add(frozenset((id_a, id_b)))
                            ports[(id_a, id_b)] = port_ab
                            ports[(id_b, id_a)] = port_ba
                        entry[2] = content
                    view = BallView(
                        center_id=identifiers[position],
                        radius=radius,
                        distance_by_id=entry[3],
                        degree_by_id=entry[4],
                        edges=entry[5],
                        port_by_pair=entry[6],
                        full_graph=members == n,
                    )
                    output = decide(view)
                    if key is not None:
                        misses += 1
                        cache.store(key, output)
                elif key is not None:
                    hits += 1
                if output is not None:
                    records[position] = NodeRecord(
                        position=position,
                        identifier=identifiers[position],
                        radius=radius,
                        output=output,
                    )
                    continue
                cap = self._cap(plan)
                if cap is not None and radius >= cap:
                    # Keep draining the other nodes so the error below can
                    # name the first failing position, as the legacy
                    # node-by-node runner did.
                    exhausted.append(position)
                else:
                    still_active.append(entry)
            active = still_active
            radius += 1
        if cache is not None:
            cache.stats.hits += hits
            cache.stats.misses += misses
            # Same bulk flush publishes the process-wide metrics (no-op
            # unless REPRO_OBS=on, so the hot loop stays counter-local).
            _metrics.add("engine.decide_hits", hits)
            _metrics.add("engine.decide_misses", misses)
        _metrics.add("engine.runs")
        if exhausted:
            position = min(exhausted)
            raise AlgorithmError(
                f"algorithm {self.algorithm.name!r} refused to output at position "
                f"{position} even at radius {self._cap(self._plan(position))} "
                f"(graph {graph.name!r}, n={graph.n})"
            )
        return ExecutionTrace(records)
