"""Parallel fan-out of simulations over processes.

Sweeps over identifier assignments, graphs and campaign cells are
embarrassingly parallel: every task is a pure function of its inputs.
:class:`BatchExecutor` shards such tasks over the process-wide **warm
worker pool** (:mod:`repro.engine.pool`) and returns results **in
submission order**, so parallel runs are bit-identical to serial ones.
The pool's workers persist across ``.map()`` calls — repeated dispatch
pays no pool start-up — and its shared-memory transport and worker-side
caches are available to callers that pass large buffers.

Determinism across workers is preserved by *per-task seeding*: any task that
needs randomness derives its seed with :func:`derive_task_seed`, a stable
hash of the base seed and the task's coordinates.  Adding workers, removing
workers or reordering the schedule therefore never changes a task's random
stream.

Worker payloads must be picklable; the module-level worker functions
(:func:`simulate_shard`) reconstruct sessions inside the worker so each
process pays the per-graph precomputation once per shard, not once per task.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence, TypeVar

from repro.engine.cache import DecisionCache
from repro.engine.pool import WorkerPool, get_pool, in_worker, resolve_workers
from repro.engine.frontier import FrontierRunner
from repro.model.graph import Graph
from repro.model.identifiers import IdentifierAssignment
from repro.model.trace import ExecutionTrace
from repro.utils.rng import derive_task_seed

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.core.algorithm import BallAlgorithm

T = TypeVar("T")
R = TypeVar("R")


class BatchExecutor:
    """Run picklable tasks across the warm process pool, preserving order.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``None`` resolves through
        :func:`repro.engine.pool.resolve_workers` (the ``REPRO_WORKERS``
        environment override, then the CPU count); ``1`` (or fewer tasks
        than two) runs serially in-process, which keeps small jobs free of
        dispatch cost and makes the executor safe to use unconditionally.
        Inside a pool worker the executor always runs serially, so nested
        fan-out cannot fork from a daemon process.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = resolve_workers(workers)

    @property
    def pool(self) -> Optional[WorkerPool]:
        """The warm pool this executor dispatches through (``None`` serial)."""
        if self.workers == 1 or in_worker():
            return None
        return get_pool(self.workers)

    def map(
        self,
        fn: Callable[[T], R],
        payloads: Sequence[T],
        keys: Optional[Sequence] = None,
    ) -> list[R]:
        """Apply ``fn`` to every payload, in order; fan out when worthwhile.

        ``keys`` (optional) gives per-task affinity hints: tasks sharing a
        key run on the same worker so its caches are reused (see
        :meth:`repro.engine.pool.WorkerPool.map`).
        """
        payloads = list(payloads)
        if self.workers == 1 or len(payloads) <= 1 or in_worker():
            return [fn(payload) for payload in payloads]
        return get_pool(self.workers).map(fn, payloads, keys=keys)


def simulate_shard(
    payload: tuple[Graph, "BallAlgorithm", tuple[IdentifierAssignment, ...], Optional[int], bool],
) -> list[ExecutionTrace]:
    """Worker: run one session over a shard of identifier assignments.

    The shard shares a single :class:`FrontierRunner` (and, when requested, a
    :class:`DecisionCache`), so the per-graph precomputation and the memoised
    decisions are amortised across the whole shard.
    """
    graph, algorithm, assignments, max_radius, use_cache = payload
    cache = DecisionCache(algorithm) if use_cache else None
    runner = FrontierRunner(graph, algorithm, cache=cache, max_radius=max_radius)
    return [runner.run(ids) for ids in assignments]


def run_simulation_batch(
    graph: Graph,
    assignments: Sequence[IdentifierAssignment],
    algorithm: "BallAlgorithm",
    max_radius: Optional[int] = None,
    workers: Optional[int] = 1,
    use_cache: bool = True,
) -> list[ExecutionTrace]:
    """Run one algorithm on many assignments, optionally across processes.

    Returns one trace per assignment, in input order, regardless of the
    worker count.  With ``workers=1`` everything runs in-process through a
    single shared session, which is also the fastest choice for small
    batches.
    """
    assignments = list(assignments)
    if not assignments:
        return []
    executor = BatchExecutor(workers)
    shard_count = min(executor.workers, len(assignments))
    if shard_count == 1:
        return simulate_shard((graph, algorithm, tuple(assignments), max_radius, use_cache))
    shards: list[list[IdentifierAssignment]] = [[] for _ in range(shard_count)]
    for index, ids in enumerate(assignments):
        shards[index % shard_count].append(ids)
    payloads = [
        (graph, algorithm, tuple(shard), max_radius, use_cache) for shard in shards
    ]
    results = executor.map(simulate_shard, payloads)
    # Undo the round-robin sharding to restore input order.
    traces: list[Optional[ExecutionTrace]] = [None] * len(assignments)
    for shard_index, shard_traces in enumerate(results):
        for offset, trace in enumerate(shard_traces):
            traces[shard_index + offset * shard_count] = trace
    return [trace for trace in traces if trace is not None]
