"""Precompiled decision rules evaluated by the batch kernel.

A :class:`KernelRule` answers *whole matrices* of identifier assignments
for one compiled ``(graph, algorithm)`` pair: given rows of
position -> identifier tuples it returns, per row, the radius at which every
node outputs.  Outputs are not part of the interface: whoever needs them
(certification, ``simulate`` rows) reads them from
:class:`~repro.engine.frontier.FrontierRunner` traces.  Rules come in three
flavours:

* **CSR rules** (:class:`ScaleRule`) read nothing but the flat CSR
  adjacency of the graph — no frontier plans — so one rule object serves a
  :class:`~repro.kernel.compile.CompiledInstance` (whole batches) and the
  sharded ``scale`` path (row blocks × centre ranges, see
  :mod:`repro.kernel.shard`) alike.  The paper's largest-ID algorithm is
  the example: a node's radius is the BFS distance to the nearest strictly
  larger identifier, or its eccentricity when it carries the row's maximum.
  :class:`MaxScanScaleRule` grows each centre's BFS layers only while some
  row of the batch is still undecided; :class:`RingScanScaleRule` is its
  specialisation to the cycle, where the layer at distance ``r`` is
  ``{v - r, v + r}`` and every undecided ``(row, centre)`` pair advances
  one ring distance per round.

* other **vectorised** rules (``vectorized = True``) know a closed-form
  description of the algorithm's stopping radius and evaluate it in tight
  stdlib loops over the CSR, on both backends: the dependency-cone rules of
  :mod:`repro.kernel.cone` and the constant-radius Cole–Vishkin rule of
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
    #: convenience, not a throughput win, and callers like the swap
    #: evaluator use this flag to decide whether batching pays.
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

    Identifiers above ``2**63 - 1`` cannot be gathered by numpy; the caller
    then evaluates the block on the stdlib path, which has no size limit.
    """
    try:
        if len(rows) == 1:
            # A buffer-backed row (the scale path's ``array('q')``) is
            # viewed, not copied: one row at n = 10^6 is 8 MB.
            return np.asarray(rows[0], dtype=np.int64)[None, :]
        return np.asarray(rows, dtype=np.int64)
    except OverflowError:
        return None


def segment_stats(radii: Sequence[int], start: int, stop: int) -> tuple[int, int]:
    """``(sum, max)`` of one centre range of a radii vector."""
    segment = radii[start:stop]
    if hasattr(segment, "sum"):  # numpy row
        return int(segment.sum()), int(segment.max())
    return sum(segment), max(segment)


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
    """A vectorised rule that reads only CSR adjacency — no frontier plans.

    Built from ``indptr`` / ``indices`` (neighbours of ``v`` are
    ``indices[indptr[v]:indptr[v + 1]]``): the CSR of a compiled instance
    (:class:`~repro.kernel.compile.CompiledInstance`) or of a
    streamed :class:`~repro.topology.stream.CSRTopology`.  The whole
    evaluation is :meth:`block_radii` — every row of a batch over one range
    of centres — which the kernel interface calls with the full range and
    the sharded executor with its row block and centre chunk.

    ``backend`` is ``"numpy"`` or ``"python"`` (``None``: the process
    default, resolved on the first evaluation).  Both compute the same
    integers; blocks with identifiers beyond int64 always take the stdlib
    path.
    """

    vectorized = True

    #: Rules whose evaluation covers every centre of a row at once set this;
    #: the sharded executor then evaluates each row once per worker and
    #: serves its centre chunks by slicing the cached radii vector.
    full_row: bool = False

    def __init__(
        self,
        indptr: Sequence[int],
        indices: Sequence[int],
        backend: Optional[str] = None,
    ) -> None:
        self._indptr = indptr
        self._indices = indices
        self._n = len(indptr) - 1
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

    def block_radii(self, rows: Rows, start: int = 0, stop: Optional[int] = None):
        """Radii of centres ``start..stop-1`` (default: all) for every row.

        Returns one radii sequence per row: a 2-D int64 array on the numpy
        path, a list of lists on the stdlib path.
        """
        raise NotImplementedError

    def block_stats(self, rows: Rows, start: int, stop: int) -> list[tuple[int, int]]:
        """Per-row ``(sum, max)`` of the radii of centres ``start..stop-1``."""
        return [
            segment_stats(radii, 0, stop - start)
            for radii in self.block_radii(rows, start, stop)
        ]

    def batch_radii(
        self, rows: Rows, start: int = 0, stop: Optional[int] = None
    ) -> list[tuple[int, ...]]:
        """:meth:`block_radii` as one tuple of radii per row."""
        radii = self.block_radii(rows, start, stop)
        if hasattr(radii, "tolist"):
            radii = radii.tolist()
        return [tuple(row) for row in radii]


class MaxScanScaleRule(ScaleRule):
    """Largest-ID on any graph: early-stop BFS shared by the rows of a batch.

    A centre's radius is the BFS distance to the nearest strictly larger
    identifier.  Each centre's layers are grown from the CSR only while
    some row of the batch is still undecided, and every new layer is tested
    against exactly those rows — so the work per centre is proportional to
    the batch's largest output ball, not to ``n``.  The rows whose maximum
    sits at the centre never find a larger identifier; they take the
    centre's eccentricity, which is assignment-independent and cached per
    centre.

    On the numpy backend a batch of at least :attr:`NUMPY_ROWS_PER_NODE`
    rows per node tests whole segments of layers (:attr:`NUMPY_SEGMENT`
    positions, then doubling) with one array gather each: the exact
    enumerations' 256-row cohorts on graphs of up to 16 nodes.  Every
    other batch — sampling chunks on larger graphs, the scale path's row
    blocks — scans layer by layer in plain loops, which decide most rows
    within a layer or two while a gather pays for a whole segment.  Both
    compute the same integers.
    """

    name = "max-scan"

    #: The numpy gather needs at least this many rows per node to beat the
    #: stdlib scan.  Warm-rule timings on paths and random trees (2-vCPU
    #: VM): at n = 8 the gather wins 1.2-1.5x at 128 rows and 1.7-2.0x at
    #: 256, and loses (0.6-1.0x) at 32-64 rows; at n = 64 it wins 1.1-1.4x
    #: only at 256 rows; at n = 128-768 it is slower at most batch sizes.
    NUMPY_ROWS_PER_NODE = 16

    #: Positions per centre in the numpy path's first tested segment; each
    #: further segment doubles, so a centre costs a few gathers whatever
    #: its depth.  Any size yields the same radii.
    NUMPY_SEGMENT = 64

    def __init__(self, indptr, indices, backend=None) -> None:
        super().__init__(indptr, indices, backend)
        self._visited: Optional[array] = None
        self._stamp = 0
        self._eccentricity: dict[int, int] = {}

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

    def block_radii(self, rows: Rows, start: int = 0, stop: Optional[int] = None):
        stop = self._n if stop is None else stop
        if self.backend == "numpy" and len(rows) >= self.NUMPY_ROWS_PER_NODE * self._n:
            np = numpy_module()
            ids = _id_matrix(np, rows)
            if ids is not None:
                return self._block_numpy(np, ids, start, stop)
        return self._block_python(rows, start, stop)

    def _block_python(self, rows: Rows, start: int, stop: int) -> list[list[int]]:
        radii = [[0] * (stop - start) for _ in rows]
        maxima = [max(ids) for ids in rows]
        for v in range(start, stop):
            column = v - start
            pending = []
            for index, ids in enumerate(rows):
                if ids[v] == maxima[index]:
                    radii[index][column] = self._eccentricity_of(v)
                else:
                    pending.append(index)
            if not pending:
                continue
            # Every pending row holds a larger identifier somewhere in the
            # (connected) graph, so the layers run out only after all decide.
            for radius, layer in enumerate(self._layers(v), 1):
                undecided = []
                for index in pending:
                    ids = rows[index]
                    own = ids[v]
                    for w in layer:
                        if ids[w] > own:
                            radii[index][column] = radius
                            break
                    else:
                        undecided.append(index)
                if not undecided:
                    break
                pending = undecided
        return radii

    def _block_numpy(self, np, ids, start: int, stop: int):
        # Position-major layout: a segment gather copies whole rows of ids_t.
        ids_t = np.ascontiguousarray(ids.T)
        radii = np.zeros((stop - start, ids_t.shape[1]), dtype=np.int64)
        on_top = ids_t[start:stop] == ids_t.max(axis=0)
        for v in range(start, stop):
            column = v - start
            top = on_top[column]
            layers = self._layers(v)
            depth = 0
            target = self.NUMPY_SEGMENT
            pending = None  # the first segment is tested against every row
            while True:
                # Whole layers until the segment holds `target` positions;
                # pending rows saw no larger identifier in earlier segments,
                # so only the new one needs testing.
                segment: list[int] = []
                depths: list[int] = []
                while len(segment) < target:
                    layer = next(layers, None)
                    if layer is None:
                        break
                    depth += 1
                    segment += layer
                    depths += [depth] * len(layer)
                if not segment:
                    break  # only rows whose maximum sits at v are left
                if pending is None:
                    larger = ids_t[segment] > ids_t[v]
                else:
                    larger = ids_t[segment][:, pending] > ids_t[v, pending]
                found = larger.any(axis=0)
                # Rows not found yet get a placeholder, overwritten later.
                radius = np.asarray(depths)[larger.argmax(axis=0)]
                if pending is None:
                    radii[column] = radius
                    found |= top
                    if found.all():
                        break
                    pending = np.flatnonzero(~found)
                else:
                    radii[column, pending] = radius
                    if found.all():
                        break
                    pending = pending[~found]
                target *= 2
            if top.any():
                radii[column, top] = self._eccentricity_of(v)
        return radii.T


class RingScanScaleRule(ScaleRule):
    """Largest-ID on the cycle: every undecided pair advances one ring step.

    Requires ``indptr`` / ``indices`` of a ring whose position ``v`` is
    adjacent to exactly ``v - 1`` and ``v + 1`` (mod ``n``) — the caller
    checks (:func:`csr_is_ring`) or trusts the streamed ``cycle`` family.
    The BFS layer at distance ``r`` from ``v`` is then ``{v - r, v + r}``,
    so a centre's radius is the first ``r`` at which either ring position
    carries a larger identifier: no adjacency walk, no visited set.  The
    numpy sweep advances every undecided ``(row, centre)`` pair of the
    batch one ring distance per round with two gather-and-compare
    operations; a pair leaves the active set the round it decides.  The
    row's maximum never finds a larger identifier and outputs at the ring's
    eccentricity ``n // 2``.

    Per-row work is ``O(sum of radii)`` at array speed, which keeps
    scale-mode nodes/s flat from 10^4 to 10^6 (``BENCH_scale.json`` gates
    the ratio).  The stdlib backend runs a two-pointer scan per centre.
    """

    name = "ring-scan"
    full_row = True

    #: Below this many undecided pairs, when more than this many rounds may
    #: remain, the sweep finishes them directly (per-pair nearest-larger
    #: scan) instead of paying whole-array rounds for a tiny tail.  Any
    #: threshold yields the same radii.
    TAIL_DIRECT = 64

    #: ``(row, centre)`` pairs per numpy sweep: bounds the sweep's
    #: temporaries to a few tens of megabytes whatever the batch size.
    PAIR_BUDGET = 1 << 20

    def block_radii(self, rows: Rows, start: int = 0, stop: Optional[int] = None):
        stop = self._n if stop is None else stop
        if self.backend == "numpy":
            np = numpy_module()
            ids = _id_matrix(np, rows)
            if ids is not None:
                step = max(1, self.PAIR_BUDGET // max(1, self._n))
                blocks = [
                    self._sweep_numpy(np, ids[offset : offset + step])
                    for offset in range(0, ids.shape[0], step)
                ]
                radii = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
                return radii[:, start:stop]
        return [self._scan_python(ids)[start:stop] for ids in rows]

    def _sweep_numpy(self, np, ids):
        """All radii of one ``(rows, n)`` identifier block."""
        count, n = ids.shape
        half = n // 2
        flat = ids.reshape(-1)
        radii = np.zeros(count * n, dtype=np.int64)
        largest = ids.argmax(axis=1) + np.arange(count, dtype=np.int64) * n
        radii[largest] = half
        undecided = np.ones(count * n, dtype=bool)
        undecided[largest] = False
        # Active pairs as flat indices row * n + centre, plus their own ids.
        pairs = np.flatnonzero(undecided)
        del undecided
        own = flat[pairs]
        r = 0
        while pairs.size:
            r += 1
            if pairs.size <= self.TAIL_DIRECT < half - r:
                # Nearest larger identifier by ring distance (the min of the
                # clockwise and counter-clockwise offsets), pair by pair.
                for pair, mine in zip(pairs.tolist(), own.tolist()):
                    base, center = pair - pair % n, pair % n
                    higher = np.nonzero(flat[base : base + n] > mine)[0]
                    delta = np.abs(higher - center)
                    radii[pair] = int(np.minimum(delta, n - delta).min())
                break
            # Ring neighbours at distance r, one side at a time so that at
            # most one index array is alive at n = 10^6.
            centers = pairs % n
            index = pairs - r
            index[centers < r] += n
            decided = flat[index] > own
            index = pairs + r
            index[centers >= n - r] -= n
            decided |= flat[index] > own
            if decided.any():
                radii[pairs[decided]] = r
                keep = ~decided
                pairs = pairs[keep]
                own = own[keep]
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
