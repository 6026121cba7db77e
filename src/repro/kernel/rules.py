"""Precompiled decision rules evaluated by the batch kernel.

A :class:`KernelRule` answers *whole matrices* of identifier assignments
for one compiled ``(graph, algorithm)`` pair: given rows of
position -> identifier tuples it returns, per row, the radius at which every
node outputs.  Outputs are not part of the interface: whoever needs them
(certification, ``simulate`` rows) reads them from
:class:`~repro.engine.frontier.FrontierRunner` traces.  Rules come in three
flavours:

* **CSR rules** (:class:`ScaleRule`) read nothing but ``n`` and the flat
  CSR adjacency of the graph — no frontier plans — so one rule object serves a
  :class:`~repro.kernel.compile.CompiledInstance` (whole batches) and the
  sharded ``scale`` path (one sampled row at a time, see
  :mod:`repro.kernel.shard`) alike.  The paper's largest-ID algorithm is
  the example: a node's radius is the BFS distance to the nearest strictly
  larger identifier, or its eccentricity when it carries the row's maximum.
  :class:`MaxScanScaleRule` propagates each row's maxima over the CSR one
  round per distance, so every undecided ``(row, centre)`` pair of the
  batch advances one BFS layer per round at array speed (stdlib backend:
  each centre's layers grown only while some row is still undecided);
  :class:`RingScanScaleRule` is its specialisation to the cycle, which
  needs only ``n`` and finds every nearest larger identifier by pointer
  jumping.  The greedy-by-ID family's dependency-cone rules
  (:mod:`repro.kernel.cone`) are CSR rules too.

* other **vectorised** rules (``vectorized = True``) know a closed-form
  description of the algorithm's stopping radius without reading the
  graph: the constant-radius Cole–Vishkin rule of
  :mod:`repro.kernel.cvring`.  Algorithms opt in through
  :meth:`repro.core.algorithm.BallAlgorithm.compile_kernel_rule`.

* the **decide-backed** fallback (:class:`RunnerTableRule`) for everything
  that cannot be table-compiled: rows run one at a time through the
  instance's private :class:`~repro.engine.frontier.FrontierRunner` session
  (frontier plans plus a warm :class:`~repro.engine.cache.DecisionCache`,
  i.e. per-``(centre, radius)`` decision tables keyed by identifier
  patterns), so the kernel interface stays uniform and the results stay
  bit-identical to the single-assignment reference path by construction.

Every rule's radii must agree with
:class:`~repro.engine.frontier.FrontierRunner` bit for bit —
``tests/property/test_property_kernel.py`` enforces this for every
registered algorithm under both backends, and
``tests/property/test_property_largest_id.py`` holds the largest-ID rules to
the closed-form oracle.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Optional, Sequence

from repro.engine.cache import DecisionCache
from repro.engine.frontier import FrontierRunner
from repro.kernel.backend import numpy_module, resolve_backend
from repro.model.identifiers import IdentifierAssignment

if TYPE_CHECKING:  # pragma: no cover - imports for type checkers only
    from repro.kernel.compile import CompiledInstance

Rows = Sequence[tuple[int, ...]]


class KernelRule:
    """One algorithm's batch evaluation strategy on a compiled instance."""

    #: Short rule identifier recorded in result rows and benchmark artifacts.
    name: str = "kernel-rule"

    #: Whether the rule evaluates whole matrices without the engine (array
    #: expressions or closed-form stdlib loops).  Non-vectorised rules run
    #: each row through a frontier session; batching them is an interface
    #: convenience, not a throughput win.
    vectorized: bool = False

    def batch_radii(self, rows: Rows) -> list[tuple[int, ...]]:
        """Per-row tuple of per-position output radii."""
        raise NotImplementedError


class RunnerTableRule(KernelRule):
    """Decide-backed fallback: one engine session, rows evaluated one by one.

    The session's :class:`~repro.engine.cache.DecisionCache` *is* the
    decision table — interned per-``(centre, radius)`` structural keys plus
    identifier patterns — so repeated ball contents across the rows of a
    batch (and across batches) are decided once.  Everything the cache
    cannot answer goes to the algorithm's own ``decide``, exactly like the
    single-assignment path.
    """

    name = "runner-table"
    vectorized = False

    def __init__(self, instance: "CompiledInstance") -> None:
        algorithm = instance.algorithm
        self._runner = FrontierRunner(
            instance.graph,
            algorithm,
            cache=DecisionCache(algorithm, max_entries=instance.max_table_entries),
            validate=False,
        )

    def batch_radii(self, rows: Rows) -> list[tuple[int, ...]]:
        radii_rows = []
        for row in rows:
            radii = self._runner.run(IdentifierAssignment(row)).radii()
            radii_rows.append(tuple(radii[position] for position in range(len(row))))
        return radii_rows


def _id_matrix(np, rows: Sequence[Sequence[int]]):
    """The rows as one ``(rows, n)`` int64 array, or ``None`` past int64.

    An int64 array (the exact search's leaf block) is used as it is.
    Identifiers above ``2**63 - 1`` cannot be gathered by numpy; the caller
    then evaluates the block on the stdlib path, which has no size limit.
    """
    try:
        if len(rows) == 1:
            # A buffer-backed row (the scale path's int64 memoryview) is
            # viewed, not copied: one row at n = 10^6 is 8 MB.
            return np.asarray(rows[0], dtype=np.int64)[None, :]
        return np.asarray(rows, dtype=np.int64)
    except OverflowError:
        return None


def csr_is_ring(indptr: Sequence[int], indices: Sequence[int]) -> bool:
    """Whether every position ``v``'s neighbours are exactly ``{v ± 1 mod n}``.

    True for :func:`~repro.topology.cycle.cycle_graph` in any port order,
    false for a cycle whose positions are relabelled out of ring order — the
    ring scan reads positions, not adjacency, so it needs the former.
    """
    n = len(indptr) - 1
    for v in range(n):
        neighbours = sorted(indices[indptr[v] : indptr[v + 1]])
        if neighbours != sorted({(v - 1) % n, (v + 1) % n}):
            return False
    return n > 0


class ScaleRule(KernelRule):
    """A vectorised rule that reads at most CSR adjacency — no frontier plans.

    The base takes ``n``; a subclass that walks the graph also takes
    ``indptr`` / ``indices`` (neighbours of ``v`` are
    ``indices[indptr[v]:indptr[v + 1]]``): the CSR of a compiled instance
    (:class:`~repro.kernel.compile.CompiledInstance`) or of a
    :class:`~repro.topology.stream.CSRTopology`.  The whole
    evaluation is :meth:`block_radii` — every centre of every row of a
    batch — which the kernel interface calls with whole batches and the
    sharded executor with one sampled row at a time.  On numpy a rule
    sweeps whole rows (:meth:`_sweep_numpy`, in blocks of at most
    :attr:`PAIR_BUDGET` pairs).

    ``backend`` is ``"numpy"`` or ``"python"`` (``None``: the process
    default, resolved on the first evaluation).  Both compute the same
    integers; blocks with identifiers beyond int64 always take the stdlib
    path.
    """

    vectorized = True

    #: Whether the rule reads the CSR arrays at all.  A rule that needs only
    #: ``n`` (the ring scan) lets the sharded executor skip publishing the
    #: adjacency to its workers.
    reads_adjacency = True

    #: ``(row, centre)`` pairs per numpy sweep: bounds a sweep's
    #: temporaries to a few tens of megabytes whatever the batch size.
    PAIR_BUDGET = 1 << 20

    def __init__(self, n: int, backend: Optional[str] = None) -> None:
        self._n = n
        self._requested_backend = backend
        self._backend: Optional[str] = None

    @property
    def backend(self) -> str:
        """The kernel backend, resolved on the first evaluation.

        A pooled scale query builds its rule in the parent process, which
        never evaluates a shard; resolving lazily keeps numpy out of it.
        """
        if self._backend is None:
            self._backend = resolve_backend(self._requested_backend)
        return self._backend

    def block_radii(self, rows: Rows):
        """Radii of every centre for every row.

        Returns one radii sequence per row.  On the numpy backend: a 2-D
        int64 array, rows swept whole by :meth:`_sweep_numpy` in blocks of
        at most ``PAIR_BUDGET // n`` rows.  Otherwise — and for rows whose
        identifiers do not fit in int64 — a list of lists from
        :meth:`_block_python`.
        """
        if self.backend == "numpy":
            np = numpy_module()
            ids = _id_matrix(np, rows)
            if ids is not None:
                step = max(1, self.PAIR_BUDGET // max(1, self._n))
                blocks = [
                    self._sweep_numpy(np, ids[offset : offset + step])
                    for offset in range(0, ids.shape[0], step)
                ]
                return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        return self._block_python(rows)

    def _sweep_numpy(self, np, ids):
        """All radii of one ``(rows, n)`` int64 identifier block."""
        raise NotImplementedError

    def _block_python(self, rows: Rows) -> list[list[int]]:
        """All radii of ``rows`` on the stdlib path."""
        raise NotImplementedError

    def batch_radii(self, rows: Rows) -> list[tuple[int, ...]]:
        """:meth:`block_radii` as one tuple of radii per row."""
        radii = self.block_radii(rows)
        if hasattr(radii, "tolist"):
            radii = radii.tolist()
        return [tuple(row) for row in radii]


class MaxScanScaleRule(ScaleRule):
    """Largest-ID on any graph: whole-row max propagation, early-stop BFS tail.

    A centre's radius is the BFS distance to the nearest strictly larger
    identifier; the row's maximum never finds one and takes its
    eccentricity.  The numpy backend sweeps whole rows at once: after round
    ``r``, ``seen[v]`` holds the largest identifier within distance ``r`` of
    ``v`` — the previous round's ``seen`` maximised over ``v``'s CSR row
    (``max(seen, maximum.reduceat(seen[..., indices], indptr[:-1]))``,
    evaluated neighbour slot by neighbour slot, see :meth:`_slot_layout`) —
    so a pending ``(row, centre)`` pair decides at the first round where
    ``seen`` exceeds its own identifier, and the row's maximum at the first
    round where every position sees it.  Each round costs ``O(rows × m)``
    at array speed and decides every pair whose radius is ``r``, so the
    sweep pays the largest radius of the batch, not the sum over centres.

    Rounds are capped at ``4 ⌈log2 n⌉``: on high-diameter graphs (paths,
    grids) a few pairs keep the sweep running for ``O(n)`` rounds, so the
    pairs still pending at the cap finish in the stdlib scan below, which
    skips testing the layers the sweep already ruled out.

    The stdlib backend (and any block whose identifiers do not fit in
    int64) runs that scan for every centre: each centre's layers are grown
    from the CSR only while some row of the batch is still undecided, and
    every new layer is tested against exactly those rows.  The maximum's
    eccentricity is assignment-independent and cached per centre.  Both
    paths compute the same integers.
    """

    name = "max-scan"

    def __init__(
        self,
        indptr: Sequence[int],
        indices: Sequence[int],
        backend: Optional[str] = None,
    ) -> None:
        super().__init__(len(indptr) - 1, backend)
        self._indptr = indptr
        self._indices = indices
        self._visited: Optional[array] = None
        self._stamp = 0
        self._eccentricity: dict[int, int] = {}
        self._layout = None
        # Sweep rounds before the stdlib tail takes over: 4 * ceil(log2 n).
        self._rounds = 4 * max(1, (self._n - 1).bit_length())

    def _layers(self, center: int):
        """Yield the BFS layers of ``center`` at distance 1, 2, ... in turn."""
        if self._visited is None:
            self._visited = array("q", bytes(8 * self._n))
        indptr, indices, visited = self._indptr, self._indices, self._visited
        self._stamp += 1
        stamp = self._stamp
        visited[center] = stamp
        frontier = [center]
        while True:
            layer = []
            for u in frontier:
                for k in range(indptr[u], indptr[u + 1]):
                    w = indices[k]
                    if visited[w] != stamp:
                        visited[w] = stamp
                        layer.append(w)
            if not layer:
                return
            yield layer
            frontier = layer

    def _eccentricity_of(self, center: int) -> int:
        """The radius at which ``center``'s ball covers the graph (cached)."""
        radius = self._eccentricity.get(center)
        if radius is None:
            radius = sum(1 for _ in self._layers(center))
            self._eccentricity[center] = radius
        return radius

    def _scan(self, rows, center: int, pending: list[int], skip: int = 0):
        """Yield ``(index, radius)`` for every pending row index at ``center``.

        Every pending row holds a larger identifier than its own at
        ``center`` somewhere in the (connected) graph, and none within
        distance ``skip`` — those layers are walked but not tested.
        """
        for radius, layer in enumerate(self._layers(center), 1):
            if radius <= skip:
                continue
            undecided = []
            for index in pending:
                ids = rows[index]
                own = ids[center]
                for w in layer:
                    if ids[w] > own:
                        yield index, radius
                        break
                else:
                    undecided.append(index)
            if not undecided:
                return
            pending = undecided

    def _block_python(self, rows: Rows) -> list[list[int]]:
        radii = [[0] * self._n for _ in rows]
        maxima = [max(ids) for ids in rows]
        for v in range(self._n):
            pending = []
            for index, ids in enumerate(rows):
                if ids[v] == maxima[index]:
                    radii[index][v] = self._eccentricity_of(v)
                else:
                    pending.append(index)
            if pending:
                for index, radius in self._scan(rows, v, pending):
                    radii[index][v] = radius
        return radii

    def _slot_layout(self, np):
        """Positions by decreasing degree, and their neighbours slot by slot.

        ``order[i]`` is the position ranked ``i``; ``slots[j]`` holds, in
        rank coordinates, the ``j``-th neighbour of each of the ranks
        ``0..len(slots[j]) - 1`` — exactly the positions of degree above
        ``j``, a prefix of the ranking.  One sweep round is then one gather
        and one prefix ``maximum`` per slot: the same per-row maximum as a
        ``maximum.reduceat`` over the CSR, without its per-segment cost.
        """
        indptr = np.asarray(self._indptr, dtype=np.int64)
        indices = np.asarray(self._indices, dtype=np.int64)
        degree = np.diff(indptr)
        order = np.argsort(-degree, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        slots = [
            rank[indices[indptr[order[: np.count_nonzero(degree > j)]] + j]]
            for j in range(int(degree.max()))
        ]
        return order, rank, slots

    def _sweep_numpy(self, np, ids):
        """All radii of one ``(rows, n)`` identifier block."""
        if self._layout is None:
            self._layout = self._slot_layout(np)
        order, rank, slots = self._layout
        seen = ids[:, order]  # rank coordinates until the radii are final
        rows = np.arange(seen.shape[0])
        top = seen.argmax(axis=1)
        best = seen[rows, top][:, None]
        # ``seen`` after r rounds: the largest identifier within distance r.
        # A pair that stays (sees nothing larger) at the start of round r
        # decides at r or later, so counting those rounds counts its radius.
        # The row's maximum never stays (its own identifier is replaced by
        # the smallest int64); its eccentricity counts the rounds at which
        # some position has not seen it yet.
        own = seen.copy()
        own[rows, top] = np.iinfo(np.int64).min
        radii = np.zeros(seen.shape, dtype=np.int64)
        eccentricity = np.zeros(rows.size, dtype=np.int64)
        stay = seen <= own
        uncovered = (seen < best).any(axis=1)
        for _ in range(self._rounds):
            if not (uncovered.any() or stay.any()):
                break
            radii += stay
            eccentricity += uncovered
            grown = seen.copy()
            for heads in slots:
                prefix = grown[:, : heads.size]
                np.maximum(prefix, seen[:, heads], out=prefix)
            seen = grown
            stay = seen <= own
            uncovered = (seen < best).any(axis=1)
        radii[rows, top] = eccentricity
        radii = radii[:, rank]
        # Stragglers: pairs past the cap finish in the layer scan, one
        # grouped scan per centre over the rows that still need it.
        by_centre: dict[int, list[int]] = {}
        stuck_rows, stuck_ranks = np.nonzero(stay)
        for row, centre in zip(stuck_rows.tolist(), order[stuck_ranks].tolist()):
            by_centre.setdefault(centre, []).append(row)
        lists = {row: ids[row].tolist() for row in set().union(*by_centre.values())}
        for centre, indexes in by_centre.items():
            for row, radius in self._scan(lists, centre, indexes, skip=self._rounds):
                radii[row, centre] = radius
        for row in np.flatnonzero(uncovered).tolist():
            centre = int(order[top[row]])
            radii[row, centre] = self._eccentricity_of(centre)
        return radii


class RingScanScaleRule(ScaleRule):
    """Largest-ID on the cycle: nearest larger identifiers by pointer jumping.

    Built from ``n`` alone: position ``v`` of the ring is adjacent to
    exactly ``v - 1`` and ``v + 1`` (mod ``n``) — the caller checks
    (:func:`csr_is_ring`) or trusts the streamed ``cycle`` family — so the
    BFS layer at distance ``r`` from ``v`` is ``{v - r, v + r}`` and a
    centre's radius is the ring distance to its nearest strictly larger
    identifier.  The row's maximum never finds one and outputs at the
    ring's eccentricity ``n // 2``.

    The numpy sweep finds every nearest larger identifier of a block at
    once, one side of the ring at a time, by pointer jumping (the
    all-nearest-larger-values technique of Berkman, Schieber and Vishkin):
    ``nxt[v]`` starts at ``v``'s ring neighbour, and while
    ``ids[nxt[v]] <= ids[v]`` the pending ``v`` jumps to ``nxt[nxt[v]]``,
    adding that pointer's length to its own.  Every skipped position holds
    a smaller or equal identifier, so a pointer never passes the nearest
    larger one.  Each round touches only the still-pending positions, and
    a 10^6-node row settles in about 40 rounds.  Blocks of rows share one
    flat index space, each row wrapping onto itself.  The stdlib backend
    runs a two-pointer scan per centre.
    """

    name = "ring-scan"
    reads_adjacency = False

    def _block_python(self, rows: Rows) -> list[list[int]]:
        return [self._scan_python(ids) for ids in rows]

    def _sweep_numpy(self, np, ids):
        """All radii of one ``(rows, n)`` identifier block."""
        count, n = ids.shape
        flat = ids.reshape(-1)
        size = count * n
        largest = ids.argmax(axis=1) + np.arange(0, size, n)
        radii = None
        for step in (1, -1):
            nxt = np.arange(step, size + step, dtype=np.int64)
            if step == 1:
                nxt[n - 1 :: n] -= n  # each row's last position wraps to its first
            else:
                nxt[::n] += n
            length = np.ones(size, dtype=np.int64)
            pending = flat[nxt] <= flat
            pending[largest] = False
            pending = np.flatnonzero(pending)
            while pending.size:
                # One synchronous round: every gather reads the previous
                # round's pointers and lengths.
                hop = nxt[pending]
                length[pending] += length[hop]
                hop = nxt[hop]
                nxt[pending] = hop
                pending = pending[flat[hop] <= flat[pending]]
            radii = length if radii is None else np.minimum(radii, length, out=radii)
        radii[largest] = n // 2
        return radii.reshape(count, n)

    def _scan_python(self, ids: Sequence[int]) -> list[int]:
        n = self._n
        half = n // 2
        radii = [0] * n
        largest = max(range(n), key=ids.__getitem__)
        for v in range(n):
            if v == largest:
                radii[v] = half
                continue
            own = ids[v]
            r = 1
            # Some strictly larger id sits within ring distance n // 2, so
            # this terminates with r <= half for every non-maximum centre.
            while ids[v - r] <= own and ids[(v + r) % n] <= own:
                r += 1
            radii[v] = r
        return radii
