"""Sharded, memory-bounded kernel execution for million-node instances.

The large-n path of the batch kernel.  A :class:`~repro.kernel.rules.ScaleRule`
— the same rule a :class:`~repro.kernel.compile.CompiledInstance`
evaluates largest-ID with — reads at most the CSR adjacency of a
:class:`~repro.topology.stream.CSRTopology`: no frontier plans, one
whole-row sweep per sampled row.  A :class:`ShardedKernelExecutor` splits
the sampled rows into blocks of :data:`ROW_BLOCK` — one task per block —
and runs them in-process (``workers == 1``, on the executor's own CSR and
rule) or over a :class:`~repro.engine.batch.BatchExecutor` process pool.

Determinism is structural, not scheduled: every radius is a pure integer
function of ``(topology, n, seed, row)``, per-row identifier permutations
derive from :func:`~repro.engine.batch.derive_task_seed`, each row folds to
an exact integer ``(sum, max)``, and rows come back in task order — so
results are bit-identical at any worker count and any row block, which
``tests/property/test_property_scale.py`` asserts.

Workers never receive megabytes over a pipe: a task payload carries the CSR
*spec* ``(topology, n, seed)`` plus its row range — and, when the rule reads
adjacency and the warm pool's shared-memory transport is live,
:class:`~repro.engine.pool.ShmRef` handles to the CSR arrays, so workers
attach the published buffers zero-copy instead of rebuilding them.
Reconstructed CSRs and rules are cached per worker and spec via
:func:`~repro.engine.pool.worker_cache` (the hit counts surface as
``pool.worker_cache_hits``).  A task evaluates its rows one at a time —
draw the row (:func:`scale_row_ids`), sweep it, fold it — so no row
permutation or radii vector outlives its row.

Algorithms opt in through
:meth:`~repro.core.algorithm.BallAlgorithm.compile_scale_rule`;
:data:`SCALE_ALGORITHMS` names the registry entries that do (the paper's
largest-ID algorithm).  Its :class:`~repro.kernel.rules.MaxScanScaleRule`
propagates each row's maxima over the CSR one distance per round, so every
undecided centre of the row advances one BFS layer per round at array
speed and a row costs ``O(m)`` per round for as many rounds as its largest
output radius (capped, with a per-centre scan for the stragglers).  On the
paper's own topology — the cycle —
:class:`~repro.kernel.rules.RingScanScaleRule` finds every nearest larger
identifier of the row by pointer jumping in a few dozen whole-array
rounds; it needs only ``n``, so a cycle cell never builds or publishes CSR
arrays at all.
Under ``workers == 1`` each task's ``kernel.shard`` span has a
``kernel.shard.rows`` child per generated row and a ``kernel.shard.rule``
child per row sweep.
"""

from __future__ import annotations

import resource
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Optional

from repro.engine.batch import BatchExecutor, derive_task_seed
from repro.engine.pool import ShmRef, fetch_memoryview, worker_cache
from repro.errors import ConfigurationError
from repro.kernel.backend import numpy_available, numpy_module
from repro.kernel.rules import ScaleRule
from repro.obs import metrics as _metrics
from repro.obs.spans import span as _obs_span
from repro.topology.stream import CSRTopology, build_csr
from repro.utils.rng import make_rng

#: Registry names whose algorithms implement ``compile_scale_rule``.  The
#: Query layer validates ``scale`` mode against this set eagerly;
#: ``tests/kernel/test_shard.py`` asserts it matches the hooks.
SCALE_ALGORITHMS = frozenset({"largest-id"})

#: Sampled rows per task (each row is one sampled assignment).  A task
#: evaluates its rows one at a time, so this fixes the task count
#: (``ceil(samples / ROW_BLOCK)``), not the memory; answers never depend
#: on it.
ROW_BLOCK = 4


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


def scale_row_block(n: int, base_seed: int, start: int, stop: int):
    """Rows ``start .. stop - 1`` of the seeded identifier-permutation stream.

    Row ``k`` is a pure function of ``(n, base_seed, k)``, so any row is
    regenerated without replaying earlier ones: one ``getrandbits(64 n)``
    draw seeded by ``derive_task_seed(base_seed, "scale", k)`` gives ``n``
    little-endian keys, and position ``i`` holds the index of the ``i``-th
    smallest key, ties in index order.  numpy argsorts the ``(rows, n)``
    key matrix with its default (unstable, faster) sort and sorts the rows
    with a tied key again stably; the block is that int64 array.  Without
    numpy (or with it disabled) ``sorted`` gives the same rows as tuples.
    """
    raw = b"".join(
        make_rng(derive_task_seed(base_seed, "scale", row))
        .getrandbits(64 * n)
        .to_bytes(8 * n, "little")
        for row in range(start, stop)
    )
    if numpy_available():
        np = numpy_module()
        keys = np.frombuffer(raw, dtype="<u8").reshape(stop - start, n)
        order = np.argsort(keys)
        ordered = np.take_along_axis(keys, order, axis=1)
        tied = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        if tied.any():
            order[tied] = np.argsort(keys[tied], kind="stable")
        return order.astype(np.int64, copy=False)
    keys = array("Q", raw)
    if sys.byteorder == "big":
        keys.byteswap()
    view = memoryview(keys)  # row slices without copies
    return [
        tuple(sorted(range(n), key=view[row * n : (row + 1) * n].__getitem__))
        for row in range(stop - start)
    ]


def scale_row_ids(n: int, base_seed: int, row_index: int) -> memoryview:
    """Row ``row_index`` of :func:`scale_row_block`: the scale path's one-row
    case, as a flat int64 buffer (``memoryview`` of format ``"q"``)."""
    (ids,) = scale_row_block(n, base_seed, row_index, row_index + 1)
    return memoryview(array("q", ids) if isinstance(ids, tuple) else ids).cast("B").cast("q")


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


def run_scale_task(payload: tuple) -> list[tuple[int, int]]:
    """Worker entry point: per-row ``(sum, max)`` of one row block.

    ``payload`` is ``(spec, algorithm, base_seed, row_start, row_stop)``,
    plus one trailing element when shared memory is live: the
    :class:`~repro.engine.pool.ShmRef` pair of the published CSR arrays.
    The worker builds (or attaches) the CSR and rule once per spec, then
    evaluates the block exactly like the serial path does.
    """
    refs = payload[5] if len(payload) > 5 else None
    return _block_stats(_rule_for_spec(payload[0], payload[1], refs), payload)


def _block_stats(rule: ScaleRule, payload: tuple) -> list[tuple[int, int]]:
    """One row block of :func:`run_scale_task` on an already-built rule.

    The serial executor path calls this with its own rule, so a serial scale
    query builds its CSR and rule exactly once.
    """
    spec, _, base_seed, row_start, row_stop = payload[:5]
    return [
        _row_stats(rule, spec[1], base_seed, row) for row in range(row_start, row_stop)
    ]


def _row_stats(rule: ScaleRule, n: int, base_seed: int, row: int) -> tuple[int, int]:
    """``(sum, max)`` of one sampled row's radii; the row dies on return."""
    with _obs_span("kernel.shard.rows", n=n):
        ids = scale_row_ids(n, base_seed, row)
    with _obs_span("kernel.shard.rule", rows=1):
        (radii,) = rule.block_radii([ids])
    if hasattr(radii, "sum"):  # numpy row
        return int(radii.sum()), int(radii.max())
    return sum(radii), max(radii)


@dataclass(frozen=True)
class ScaleRowStats:
    """Folded per-row aggregates of one sampled assignment."""

    row: int
    sum_radius: int
    max_radius: int
    average_radius: float


class ShardedKernelExecutor:
    """Row-block sharding of scale evaluation over processes.

    The decomposition — one task per :data:`ROW_BLOCK` sampled rows — never
    depends on ``workers``, which only decides how many tasks run
    concurrently; results are bit-identical at any worker count.  With
    ``workers == 1`` every task runs in-process under a ``kernel.shard``
    observability span, so ``repro query --profile`` attributes wall time
    per task.
    """

    def __init__(self, csr: CSRTopology, algorithm, workers: int = 1) -> None:
        self.csr = csr
        self.algorithm = algorithm
        self.workers = workers
        self._rule = scale_rule_for(algorithm, csr)

    def _run_tasks(self, payloads: list[tuple]) -> list:
        """Execute row blocks: in-process, or pooled with the CSR in shm.

        On the pooled path the CSR arrays of a rule that reads adjacency are
        published once into shared memory and every payload carries their
        handles; a rule that needs only ``n`` (the ring scan) publishes
        nothing, and its workers never build the arrays either.
        """
        if self.workers > 1 and len(payloads) > 1:
            executor = BatchExecutor(self.workers)
            pool = executor.pool
            pinned: list[ShmRef] = []
            if pool is not None and self._rule.reads_adjacency:
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
                return executor.map(run_scale_task, payloads)
            finally:
                for ref in pinned:
                    pool.release(ref)
        results = []
        for payload in payloads:
            _metrics.add("kernel.shard.tasks")
            with _obs_span(
                "kernel.shard", rows=payload[4] - payload[3], rule=self._rule.name
            ):
                results.append(_block_stats(self._rule, payload))
        return results

    def sample_measures(self, samples: int, seed: int = 0) -> list[ScaleRowStats]:
        """Per-row (sum/max/average radius) stats of ``samples`` seeded rows.

        Memory is O(one row + CSR) per process regardless of ``samples``:
        no radii matrix is ever materialised.  Rows derive from
        :func:`scale_row_ids`, so the stats are a pure function of
        ``(csr.spec, seed, samples)``.
        """
        if samples < 1:
            raise ConfigurationError(f"samples must be positive, got {samples}")
        spec = self.csr.spec
        name = self.algorithm.name
        payloads = [
            (spec, name, seed, row_start, min(samples, row_start + ROW_BLOCK))
            for row_start in range(0, samples, ROW_BLOCK)
        ]
        n = self.csr.n
        blocks = self._run_tasks(payloads)
        return [
            ScaleRowStats(
                row=row, sum_radius=total, max_radius=worst, average_radius=total / n
            )
            for row, (total, worst) in enumerate(
                stats for block in blocks for stats in block
            )
        ]

    def describe(self) -> dict:
        """JSON-friendly identity (result rows, benchmark artifacts).

        The worker count is left out: it changes no sampled value, so a
        scale row stays a function of its query whatever the fan-out.
        """
        return {"rule": self._rule.name, "topology": self.csr.describe()}


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
    executor = ShardedKernelExecutor(csr, make_ball_algorithm(algorithm, n), workers=workers)
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
        "build_s": build_s,
        "elapsed_s": elapsed,
        "nodes_per_s": nodes / elapsed if elapsed > 0 else float("inf"),
        "peak_rss_bytes": peak_rss_bytes(),
        "avg_mean": sum(s.average_radius for s in stats) / len(stats),
        "max_mean": sum(s.max_radius for s in stats) / len(stats),
        "rule": executor.describe()["rule"],
    }
