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

Worker functions and their payloads must be picklable, so workers are
module-level functions.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, TypeVar

from repro.engine.pool import WorkerPool, get_pool, in_worker, resolve_workers
from repro.utils.rng import derive_task_seed

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
