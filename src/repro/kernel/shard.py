"""Sharded, memory-bounded kernel execution for million-node instances.

The large-n path of the batch kernel.  A :class:`~repro.kernel.rules.ScaleRule`
— the same CSR rule a :class:`~repro.kernel.compile.CompiledInstance`
evaluates largest-ID with — reads nothing but the streamed CSR adjacency of a
:class:`~repro.topology.stream.CSRTopology`: no frontier plans, one
whole-row sweep per sampled row.  A
:class:`ShardedKernelExecutor` splits the work into **row blocks × centre
chunks** and runs them in-process (``workers == 1``, on the executor's own
CSR and rule) or over a :class:`~repro.engine.batch.BatchExecutor` process
pool.

Determinism is structural, not scheduled: every radius is a pure integer
function of ``(topology, n, seed, row)``, the task decomposition is fixed by
``row_block``/``center_chunk`` (never by the worker count), per-row identifier
permutations derive from :func:`~repro.engine.batch.derive_task_seed`, and
partial aggregates (sum, max) merge in task order — so results are
bit-identical at any worker count and any chunk size, which
``tests/property/test_property_scale.py`` asserts.

Workers never receive megabytes over a pipe: a task payload carries the CSR
*spec* ``(topology, n, seed)`` plus scalar coordinates — and, when the warm
pool's shared-memory transport is live, :class:`~repro.engine.pool.ShmRef`
handles to the CSR arrays (and to explicit row matrices), so workers attach
the published buffers zero-copy instead of rebuilding or unpickling them.
Reconstructed CSRs, rules and row permutations are cached per worker via
:func:`~repro.engine.pool.worker_cache` (the hit counts surface as
``pool.worker_cache_hits``), and tasks carry row-block affinity keys so all
centre chunks of one sampled row land on the worker that already holds that
row's state.

Algorithms opt in through
:meth:`~repro.core.algorithm.BallAlgorithm.compile_scale_rule`;
:data:`SCALE_ALGORITHMS` names the registry entries that do (the paper's
largest-ID algorithm).  Its :class:`~repro.kernel.rules.MaxScanScaleRule`
propagates each row's maxima over the CSR one distance per round, so every
undecided centre of the row advances one BFS layer per round at array
speed and a row costs ``O(m)`` per round for as many rounds as its largest
output radius (capped, with a per-centre scan for the stragglers).  On the
paper's own topology — the cycle —
:class:`~repro.kernel.rules.RingScanScaleRule` reads the layer at distance
``r`` straight off the ring (``{v - r, v + r}``), with no adjacency walk.
Both rules evaluate a full row at once, cached per worker and sliced into
centre chunks.  Under ``workers == 1`` each shard's
``kernel.shard`` span has a ``kernel.shard.rows`` child per generated row
and a ``kernel.shard.rule`` child per rule evaluation.
"""

from __future__ import annotations

import resource
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.engine.batch import BatchExecutor, derive_task_seed
from repro.engine.pool import ShmRef, fetch_memoryview, worker_cache
from repro.errors import ConfigurationError, IdentifierError, TopologyError
from repro.kernel.backend import numpy_available, numpy_module
from repro.kernel.rules import ScaleRule, segment_stats
from repro.obs import metrics as _metrics
from repro.obs.spans import obs_enabled as _obs_enabled, span as _obs_span
from repro.topology.stream import CSRTopology, build_csr
from repro.utils.rng import make_rng

#: Registry names whose algorithms implement ``compile_scale_rule``.  The
#: Query layer validates ``scale`` mode against this set eagerly;
#: ``tests/kernel/test_shard.py`` asserts it matches the hooks.
SCALE_ALGORITHMS = frozenset({"largest-id"})

#: Default rows per sharded task (each row is one sampled assignment).
DEFAULT_ROW_BLOCK = 4

#: Default centres per sharded task.  16 chunks at n = 10^6: coarse enough
#: to amortise the per-task CSR lookup, fine enough to fan out.
DEFAULT_CENTER_CHUNK = 65536


def scale_rule_for(algorithm, csr: CSRTopology) -> ScaleRule:
    """The algorithm's scale rule, or a clear error when it has none."""
    rule = algorithm.compile_scale_rule(csr)
    if rule is None:
        raise ConfigurationError(
            f"algorithm {algorithm.name!r} has no scale rule "
            f"(compile_scale_rule returned None); scale-capable algorithms: "
            f"{', '.join(sorted(SCALE_ALGORITHMS))}"
        )
    return rule


def scale_row_ids(n: int, base_seed: int, row_index: int) -> memoryview:
    """The deterministic identifier permutation of one sampled row.

    A pure function of ``(n, base_seed, row_index)`` — workers regenerate
    rows locally instead of receiving 8 MB of identifiers per task.  One
    ``getrandbits(64 n)`` draw from the row's derived seed gives ``n``
    little-endian 64-bit keys; position ``i`` holds the index of the
    ``i``-th smallest key (a stable sort, so ties keep index order).  numpy's
    stable argsort and the stdlib's ``sorted`` give the same permutation;
    the stdlib one runs whenever numpy is unavailable or disabled.  The
    permutation comes back as a flat int64 buffer (``memoryview`` of format
    ``"q"``, 8 bytes per identifier) over the sort's own output, not a copy.
    """
    raw = make_rng(derive_task_seed(base_seed, "scale", row_index)).getrandbits(64 * n)
    raw = raw.to_bytes(8 * n, "little")
    if numpy_available():
        np = numpy_module()
        order = np.argsort(np.frombuffer(raw, dtype="<u8"), kind="stable")
        return memoryview(order.astype(np.int64, copy=False)).cast("B").cast("q")
    keys = array("Q", raw)
    if sys.byteorder == "big":
        keys.byteswap()
    return memoryview(array("q", sorted(range(n), key=keys.__getitem__)))


# ----------------------------------------------------------------------
# worker-side caches (pool-backed; payloads carry scalars and shm handles)
# ----------------------------------------------------------------------
def _csr_for_spec(
    spec: tuple[str, int, int], refs: Optional[tuple[ShmRef, ShmRef]] = None
) -> CSRTopology:
    """The CSR for one spec: attach the published arrays, else rebuild."""

    def build() -> CSRTopology:
        if refs is not None:
            try:
                indptr = fetch_memoryview(refs[0]).cast("q")
                indices = fetch_memoryview(refs[1]).cast("q")
                return CSRTopology(spec[0], spec[1], spec[2], indptr, indices)
            except LookupError:
                pass  # segment evicted or publisher gone: rebuild from spec
        return build_csr(*spec)

    return worker_cache("shard.csr", spec, build)


def _rule_for_spec(
    spec: tuple[str, int, int],
    algorithm_name: str,
    refs: Optional[tuple[ShmRef, ShmRef]] = None,
) -> ScaleRule:
    def build() -> ScaleRule:
        from repro.engine.campaign import make_ball_algorithm

        csr = _csr_for_spec(spec, refs)
        return scale_rule_for(make_ball_algorithm(algorithm_name, csr.n), csr)

    return worker_cache("shard.rule", (spec, algorithm_name), build)


def _row_for(n: int, base_seed: int, row_index: int) -> memoryview:
    """One cached row permutation (:func:`scale_row_ids`, 8 bytes/id)."""

    def build() -> memoryview:
        with _obs_span("kernel.shard.rows", n=n):
            return scale_row_ids(n, base_seed, row_index)

    return worker_cache("shard.row", (n, base_seed, row_index), build)


def _rows_from_payload(rows) -> Sequence[Sequence[int]]:
    """Materialise the explicit-row field: inline tuples or one shm matrix."""
    if rows and rows[0] == "rows-ref":
        _, offset, count, width, ref = rows
        flat = fetch_memoryview(ref).cast("q")
        return [
            flat[(offset + index) * width : (offset + index + 1) * width]
            for index in range(count)
        ]
    return rows


def run_scale_task(payload: tuple) -> list:
    """Worker entry point: one ``(rows × centre range)`` shard.

    Two payload shapes, discriminated by the first element (each may carry
    one trailing element: the :class:`~repro.engine.pool.ShmRef` pair of the
    published CSR arrays, absent when shared memory is unavailable):

    * ``("stats", spec, algorithm, base_seed, row_start, row_stop, c0, c1[, refs])``
      → per-row ``(sum, max)`` partials over the centre range;
    * ``("radii", spec, algorithm, rows, c0, c1[, refs])``
      → per-row radii tuples over the centre range (explicit-row path), where
      ``rows`` is either a tuple of inline identifier rows or
      ``("rows-ref", offset, count, width, ref)`` naming a published row
      matrix.

    The worker rebuilds (or attaches) the CSR and rule once per spec, then
    evaluates the shard exactly like the serial path does.
    """
    size = 8 if payload[0] == "stats" else 6
    refs = payload[size] if len(payload) > size else None
    rule = _rule_for_spec(payload[1], payload[2], refs)
    return _evaluate_shard(rule, payload[:size])


def _evaluate_shard(rule: ScaleRule, payload: tuple) -> list:
    """One shard of :func:`run_scale_task` on an already-built rule.

    The serial executor path calls this with its own rule, so a serial scale
    query builds its CSR and rule exactly once.  Scale rules evaluate whole
    rows, so a sampled row's complete radii vector is computed once, cached
    per process keyed by ``(spec, algorithm, seed, row)``, and every centre
    chunk is served by slicing — which is why the executor gives all chunks
    of one row block the same affinity key.
    """
    kind, spec, algorithm_name = payload[:3]
    if kind == "stats":
        base_seed, row_start, row_stop, c0, c1 = payload[3:8]
        n = spec[1]
        # One row per cached vector keeps the cache at n radii per entry.
        partials = []
        for row in range(row_start, row_stop):
            radii = worker_cache(
                "shard.radii",
                (spec, algorithm_name, base_seed, row),
                lambda row=row: _evaluate(
                    rule.block_radii, [_row_for(n, base_seed, row)]
                )[0],
            )
            partials.append(segment_stats(radii, c0, c1))
        return partials
    rows, c0, c1 = payload[3:6]
    return _evaluate(rule.batch_radii, _rows_from_payload(rows), c0, c1)


def _evaluate(method, rows, *centres):
    """One rule evaluation over ``rows``, under a ``kernel.shard.rule`` span."""
    with _obs_span("kernel.shard.rule", rows=len(rows)):
        return method(rows, *centres)


@dataclass(frozen=True)
class ScaleRowStats:
    """Folded per-row aggregates of one sampled assignment."""

    row: int
    sum_radius: int
    max_radius: int
    average_radius: float


class ShardedKernelExecutor:
    """Row-block × centre-chunk sharding of scale evaluation over processes.

    The decomposition — and therefore every partial and its merge order —
    is fixed by ``row_block`` and ``center_chunk`` alone; ``workers`` only
    decides how many tasks run concurrently.  Results are bit-identical at
    any worker count.  With ``workers == 1`` every shard runs in-process
    under a ``kernel.shard`` observability span, so ``repro query --profile``
    attributes wall time per shard.
    """

    def __init__(
        self,
        csr: CSRTopology,
        algorithm,
        workers: int = 1,
        row_block: int = DEFAULT_ROW_BLOCK,
        center_chunk: int = DEFAULT_CENTER_CHUNK,
    ) -> None:
        if row_block < 1:
            raise ConfigurationError(f"row_block must be >= 1, got {row_block}")
        if center_chunk < 1:
            raise ConfigurationError(f"center_chunk must be >= 1, got {center_chunk}")
        self.csr = csr
        self.algorithm = algorithm
        self.workers = workers
        self.row_block = row_block
        self.center_chunk = center_chunk
        self._rule = scale_rule_for(algorithm, csr)

    def _center_ranges(self) -> list[tuple[int, int]]:
        n = self.csr.n
        return [
            (start, min(n, start + self.center_chunk))
            for start in range(0, n, self.center_chunk)
        ]

    def _run_tasks(self, payloads: list[tuple], keys: Optional[list] = None) -> list:
        """Execute shards (serial path instrumented, parallel path pooled).

        On the pooled path the CSR arrays are published once into shared
        memory and every payload carries their handles; ``keys`` (row-block
        identities) pin all centre chunks of one row block to one worker so
        its cached row state is reused, never duplicated.
        """
        if self.workers > 1 and len(payloads) > 1:
            executor = BatchExecutor(self.workers)
            pool = executor.pool
            pinned: list[ShmRef] = []
            if pool is not None:
                indptr_ref = pool.publish(self.csr.indptr)
                indices_ref = pool.publish(self.csr.indices)
                if indptr_ref is not None and indices_ref is not None:
                    pinned = [indptr_ref, indices_ref]
                    refs = (indptr_ref, indices_ref)
                    payloads = [payload + (refs,) for payload in payloads]
                else:
                    pool.release(indptr_ref)
                    pool.release(indices_ref)
            try:
                return executor.map(run_scale_task, payloads, keys=keys)
            finally:
                for ref in pinned:
                    pool.release(ref)
        results = []
        for payload in payloads:
            if _obs_enabled():
                rows = (
                    payload[5] - payload[4]
                    if payload[0] == "stats"
                    else len(payload[3])
                )
                _metrics.add("kernel.shard.tasks")
                with _obs_span(
                    "kernel.shard",
                    rows=rows,
                    centers=payload[-1] - payload[-2],
                    rule=self._rule.name,
                ):
                    results.append(_evaluate_shard(self._rule, payload))
            else:
                results.append(_evaluate_shard(self._rule, payload))
        return results

    # ------------------------------------------------------------------
    # sampled measures: the million-node path
    # ------------------------------------------------------------------
    def sample_measures(self, samples: int, seed: int = 0) -> list[ScaleRowStats]:
        """Per-row (sum/max/average radius) stats of ``samples`` seeded rows.

        Memory is O(row ids + CSR) regardless of ``samples``: no radii
        matrix is ever materialised.  Rows derive from
        :func:`scale_row_ids`, so the stats are a pure function of
        ``(csr.spec, seed, samples)``.
        """
        if samples < 1:
            raise ConfigurationError(f"samples must be positive, got {samples}")
        spec = self.csr.spec
        name = self.algorithm.name
        ranges = self._center_ranges()
        payloads = [
            ("stats", spec, name, seed, row_start, min(samples, row_start + self.row_block), c0, c1)
            for row_start in range(0, samples, self.row_block)
            for (c0, c1) in ranges
        ]
        keys = [
            row_start
            for row_start in range(0, samples, self.row_block)
            for _ in ranges
        ]
        results = self._run_tasks(payloads, keys=keys)
        # Merge partials per row, in centre-range order within each block.
        n = self.csr.n
        stats: list[ScaleRowStats] = []
        index = 0
        for row_start in range(0, samples, self.row_block):
            row_stop = min(samples, row_start + self.row_block)
            block = [(0, 0)] * (row_stop - row_start)
            for _ in ranges:
                partials = results[index]
                index += 1
                block = [
                    (total + part_sum, max(worst, part_max))
                    for (total, worst), (part_sum, part_max) in zip(block, partials)
                ]
            for offset, (total, worst) in enumerate(block):
                stats.append(
                    ScaleRowStats(
                        row=row_start + offset,
                        sum_radius=total,
                        max_radius=worst,
                        average_radius=total / n,
                    )
                )
        return stats

    # ------------------------------------------------------------------
    # explicit rows: the parity/test path
    # ------------------------------------------------------------------
    def batch_radii(self, ids_matrix: Sequence) -> list[tuple[int, ...]]:
        """Full radii rows for explicit assignments (small-n parity surface).

        Validates like the compiled kernel and returns exactly what
        :meth:`CompiledInstance.batch_radii
        <repro.kernel.compile.CompiledInstance.batch_radii>` returns on the
        materialised graph — the property wall asserts the equality.
        """
        n = self.csr.n
        rows = []
        for row in ids_matrix:
            identifiers = row.identifiers() if hasattr(row, "identifiers") else row
            values = tuple(int(identifier) for identifier in identifiers)
            if len(values) != n:
                raise TopologyError(
                    f"assignment row covers {len(values)} positions "
                    f"but topology has {n}"
                )
            if len(set(values)) != n:
                raise IdentifierError("identifiers must be pairwise distinct")
            rows.append(values)
        if not rows:
            return []
        spec = self.csr.spec
        name = self.algorithm.name
        ranges = self._center_ranges()
        blocks = [
            rows[start : start + self.row_block]
            for start in range(0, len(rows), self.row_block)
        ]
        parallel = self.workers > 1 and len(blocks) * len(ranges) > 1
        pool = BatchExecutor(self.workers).pool if parallel else None
        matrix_ref = None
        if pool is not None:
            # One flat row-major int64 matrix, published once; every task
            # references its block by (offset, count) instead of carrying
            # n identifiers per row inline.
            flat = array("q")
            for row in rows:
                flat.extend(row)
            matrix_ref = pool.publish(flat)
        if matrix_ref is not None:
            row_fields = [
                ("rows-ref", start, len(block), n, matrix_ref)
                for start, block in zip(range(0, len(rows), self.row_block), blocks)
            ]
        else:
            row_fields = [tuple(block) for block in blocks]
        payloads = [
            ("radii", spec, name, row_field, c0, c1)
            for row_field in row_fields
            for (c0, c1) in ranges
        ]
        keys = [
            block_index for block_index in range(len(blocks)) for _ in ranges
        ]
        try:
            results = self._run_tasks(payloads, keys=keys)
        finally:
            if pool is not None:
                pool.release(matrix_ref)
        radii_rows: list[tuple[int, ...]] = []
        index = 0
        for block in blocks:
            pieces = [results[index + k] for k in range(len(ranges))]
            index += len(ranges)
            for offset in range(len(block)):
                merged: list[int] = []
                for piece in pieces:
                    merged.extend(piece[offset])
                radii_rows.append(tuple(merged))
        return radii_rows

    def describe(self) -> dict:
        """JSON-friendly identity (result rows, benchmark artifacts)."""
        return {
            "rule": self._rule.name,
            "workers": self.workers,
            "row_block": self.row_block,
            "center_chunk": self.center_chunk,
            "topology": self.csr.describe(),
        }


def peak_rss_bytes() -> int:
    """Peak resident set size of this process and its children, in bytes.

    Prefers ``VmHWM`` from ``/proc/self/status`` for the process itself:
    unlike ``ru_maxrss`` (kept in the signal struct, so it survives
    ``execve`` and a probe subprocess forked off a large parent would
    inherit the parent's high-water mark), ``VmHWM`` lives in the memory
    map and resets on exec — it measures only what *this* program
    resident-peaked at.  Falls back to ``ru_maxrss`` where ``/proc`` is
    unavailable.
    """
    self_bytes = _vm_hwm_bytes()
    if self_bytes is None:
        self_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    children_bytes = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
    )
    return max(self_bytes, children_bytes)


def _vm_hwm_bytes() -> Optional[int]:
    """``VmHWM`` of this process in bytes, or ``None`` without procfs."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        return None
    return None


def run_scale_probe(
    topology: str,
    n: int,
    algorithm: str = "largest-id",
    samples: int = 2,
    seed: int = 0,
    workers: int = 1,
    row_block: int = DEFAULT_ROW_BLOCK,
    center_chunk: int = DEFAULT_CENTER_CHUNK,
) -> dict:
    """One end-to-end scale measurement, JSON-friendly (the bench harness).

    ``benchmarks/test_bench_scale.py`` runs this in a fresh subprocess per
    size so the recorded ``peak_rss_bytes`` is the probe's own high-water
    mark, not the test session's.
    """
    from repro.engine.campaign import make_ball_algorithm

    build_started = time.perf_counter()
    csr = build_csr(topology, n, seed=seed)
    build_s = time.perf_counter() - build_started
    executor = ShardedKernelExecutor(
        csr,
        make_ball_algorithm(algorithm, n),
        workers=workers,
        row_block=row_block,
        center_chunk=center_chunk,
    )
    started = time.perf_counter()
    stats = executor.sample_measures(samples, seed=seed)
    elapsed = time.perf_counter() - started
    nodes = n * samples
    return {
        "topology": topology,
        "n": n,
        "m": csr.m,
        "algorithm": algorithm,
        "samples": samples,
        "seed": seed,
        "workers": workers,
        "row_block": row_block,
        "center_chunk": center_chunk,
        "build_s": build_s,
        "elapsed_s": elapsed,
        "nodes_per_s": nodes / elapsed if elapsed > 0 else float("inf"),
        "peak_rss_bytes": peak_rss_bytes(),
        "avg_mean": sum(s.average_radius for s in stats) / len(stats),
        "max_mean": sum(s.max_radius for s in stats) / len(stats),
        "rule": executor.describe()["rule"],
    }
