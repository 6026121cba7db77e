"""The persistent parallel runtime: warm workers, shared memory, caches.

:class:`~repro.engine.batch.BatchExecutor` historically built a fresh
``multiprocessing.Pool`` for every ``.map()`` call, so each parallel
dispatch paid pool start-up, re-pickled its full payloads per task, and
every worker rebuilt graphs and compiled instances per shard.  This module
replaces that with one warm runtime per process:

* **Warm long-lived workers** — :class:`WorkerPool` spawns its processes
  once and reuses them across ``.map()`` calls (:func:`get_pool` keeps one
  pool per worker count for the whole process, shut down via context
  manager or ``atexit``).  A worker that dies mid-task is respawned and its
  task resubmitted; results always return in submission order, so parallel
  runs stay bit-identical to serial ones at any worker count.
* **Zero-copy payload transport** — large buffers (streamed CSR arrays,
  batched identifier matrices) are published once into
  ``multiprocessing.shared_memory`` segments keyed by content digest
  (:meth:`WorkerPool.publish`) and referenced by a tiny :class:`ShmRef`
  handle inside task messages instead of being pickled per task.  Segments
  are refcount-pinned while a publisher holds them and evicted LRU
  afterwards; when shared memory is unavailable (``REPRO_SHM=off`` or a
  runtime failure) publishing returns ``None`` and callers fall back to
  plain pickled payloads.
* **Worker-side caches** — :func:`worker_cache` gives task functions a
  bounded per-process LRU of reconstructed objects (CSR topologies, scale
  rules, compiled instances) keyed by the same digests, so a million-node
  sweep compiles once per worker, not once per task.
  :func:`fetch_memoryview` attaches a published segment zero-copy.

**Scheduling affinity**: ``map(fn, payloads, keys=...)`` pins all tasks
sharing a key to one worker (keys are assigned to workers round-robin in
first-appearance order, deterministically), so tasks that reuse the same
cached state — e.g. the ``simulate`` cells of one compiled instance —
land where that state already lives.  Affinity only changes
*placement*, never results.

**Worker-count resolution** (:func:`resolve_workers`): an explicit value
always wins, then the ``REPRO_WORKERS`` environment override, then the
caller's fallback (the CPU count when none is given).

Metrics (``REPRO_OBS=on``): ``pool.dispatches`` / ``pool.tasks`` /
``pool.bytes_shipped`` / ``pool.bytes_shared`` / ``pool.resubmissions`` /
``pool.worker_cache_hits`` / ``pool.worker_cache_misses`` counters, the
``pool.queue_depth`` and ``pool.shm_bytes`` gauges, and a ``pool.map``
span per dispatch.  The same counters are always available programmatically
as :attr:`WorkerPool.stats` (plain integers, no instrumentation needed) —
``benchmarks/test_bench_parallel.py`` gates on them.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import os
import pickle
import signal
from collections import OrderedDict, deque
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Optional, Sequence, TypeVar

from repro.errors import ConfigurationError
from repro.obs import metrics as _metrics
from repro.obs.spans import span as _obs_span

T = TypeVar("T")
R = TypeVar("R")

#: Environment override of every defaulted worker count (see
#: :func:`resolve_workers`).
ENV_WORKERS = "REPRO_WORKERS"

#: Set to ``off`` (or ``0``) to disable shared-memory transport; payloads
#: then travel as plain pickles (the compatibility fallback).
ENV_SHM = "REPRO_SHM"

#: How often one task may be resubmitted after killing its worker before
#: the pool gives up (guards against a task that crashes deterministically).
MAX_TASK_ATTEMPTS = 3

#: Unpinned published segments kept per pool (LRU).  Eviction only unlinks
#: segments no publisher still holds; workers that lost a segment fall back
#: to rebuilding from the task's spec.
MAX_SEGMENTS = 8

#: Entries per worker-side reconstruction cache namespace (LRU).
WORKER_CACHE_LIMIT = 8

_STAT_KEYS = (
    "dispatches",
    "tasks",
    "bytes_shipped",
    "bytes_shared",
    "resubmissions",
    "respawns",
    "worker_cache_hits",
    "worker_cache_misses",
    "segments_published",
    "segments_evicted",
)


def resolve_workers(workers: Optional[int] = None, fallback: Optional[int] = None) -> int:
    """Resolve a worker count: explicit > ``REPRO_WORKERS`` > fallback.

    ``workers`` is an explicit request (a CLI flag, a Query field) and wins
    outright.  With ``workers=None`` the ``REPRO_WORKERS`` environment
    variable decides; when that is unset too, ``fallback`` (or the CPU
    count when no fallback is given).  Anything below 1 is rejected.
    """
    if workers is not None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        return workers
    env = os.environ.get(ENV_WORKERS)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ConfigurationError(
                f"{ENV_WORKERS} must be a positive integer, got {env!r}"
            ) from None
        if value < 1:
            raise ConfigurationError(
                f"{ENV_WORKERS} must be a positive integer, got {env!r}"
            )
        return value
    if fallback is not None:
        return fallback
    return os.cpu_count() or 1


def shm_transport_enabled() -> bool:
    """Whether shared-memory transport is allowed (``REPRO_SHM`` gate)."""
    return os.environ.get(ENV_SHM, "").strip().lower() not in ("off", "0", "false")


def in_worker() -> bool:
    """True inside a pool worker process (nested fan-out runs serially)."""
    return get_context().current_process().daemon


@dataclass(frozen=True)
class ShmRef:
    """A picklable handle to one published shared-memory segment.

    ``name`` addresses the segment, ``size`` its payload bytes (the segment
    may be rounded up by the OS) and ``digest`` the BLAKE2b content hash
    that keys worker-side caches.
    """

    name: str
    size: int
    digest: str


class WorkerCrashError(RuntimeError):
    """A task killed its worker more than :data:`MAX_TASK_ATTEMPTS` times."""


@dataclass
class _Segment:
    """Parent-side record of one published shared-memory segment."""

    shm: object
    ref: ShmRef
    pins: int


class _Worker:
    """One warm worker process and its duplex message pipe."""

    __slots__ = ("process", "connection", "task")

    def __init__(self, process, connection) -> None:
        self.process = process
        self.connection = connection
        #: ``(task_id, message_bytes)`` currently being computed, if any.
        self.task: Optional[tuple[int, bytes]] = None


def _portable_error(exc: BaseException) -> Exception:
    """An exception that survives pickling back to the parent."""
    try:
        pickle.dumps(exc)
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc if isinstance(exc, Exception) else RuntimeError(repr(exc))


# ----------------------------------------------------------------------
# worker side: main loop, caches, shared-memory attachment
# ----------------------------------------------------------------------
_worker_stats = {"cache_hits": 0, "cache_misses": 0}
_worker_caches: OrderedDict = OrderedDict()
_worker_attached: dict[str, object] = {}


def _worker_stats_delta(before: dict) -> dict:
    return {key: _worker_stats[key] - before[key] for key in _worker_stats}


def worker_cache(namespace: str, key, build: Callable[[], T]) -> T:
    """A per-process LRU of reconstructed objects, shared by all consumers.

    ``build()`` runs on a miss; at most :data:`WORKER_CACHE_LIMIT` entries
    per namespace survive.  Hit/miss counts piggyback on task replies and
    surface as ``pool.worker_cache_hits`` / ``..._misses``.  Usable from
    the parent process too (it is just a dict), which keeps serial and
    parallel code paths identical.
    """
    full_key = (namespace, key)
    try:
        value = _worker_caches[full_key]
    except KeyError:
        _worker_stats["cache_misses"] += 1
        value = build()
        per_namespace = [k for k in _worker_caches if k[0] == namespace]
        while len(per_namespace) >= WORKER_CACHE_LIMIT:
            _worker_caches.pop(per_namespace.pop(0))
        _worker_caches[full_key] = value
        return value
    _worker_stats["cache_hits"] += 1
    _worker_caches.move_to_end(full_key)
    return value


def clear_worker_caches() -> None:
    """Drop every worker-side cache entry and segment attachment (tests)."""
    _worker_caches.clear()
    for shm in _worker_attached.values():
        try:
            shm.close()
        except BufferError:  # a live memoryview still exports the buffer
            pass
    _worker_attached.clear()


def fetch_memoryview(ref: ShmRef) -> memoryview:
    """Attach one published segment and return its payload, zero-copy.

    Attachments are cached per process for the worker's lifetime.  Raises
    :class:`LookupError` when the segment is gone (evicted or the publisher
    exited) — callers fall back to rebuilding from their spec.
    """
    shm = _worker_attached.get(ref.name)
    if shm is None:
        try:
            from multiprocessing import shared_memory

            # Attaching re-registers the name with the resource tracker;
            # under the fork start method every worker shares the parent's
            # tracker (the registry is a name-keyed set), so this is
            # idempotent and balanced by the publisher's ``unlink()``.
            shm = shared_memory.SharedMemory(name=ref.name)
        except (FileNotFoundError, OSError, ImportError) as exc:
            raise LookupError(f"shared segment {ref.name} unavailable") from exc
        _worker_attached[ref.name] = shm
    return shm.buf[: ref.size]


def _worker_main(connection) -> None:
    """The worker loop: receive ``(task_id, fn, payload)``, reply in kind."""
    # A worker's random/hash state never matters (tasks are pure and carry
    # their own seeds), so no reseeding is needed here.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            data = connection.recv_bytes()
        except (EOFError, OSError):
            break
        if not data:
            break
        # The task id travels outside the pickle so even a payload this
        # worker cannot unpickle becomes a clean task error, not a death.
        task_id = int.from_bytes(data[:8], "little")
        before = dict(_worker_stats)
        try:
            fn, payload = pickle.loads(data[8:])
            reply = (task_id, True, fn(payload), _worker_stats_delta(before))
        except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
            reply = (task_id, False, _portable_error(exc), _worker_stats_delta(before))
        try:
            payload_bytes = pickle.dumps(reply)
        except Exception as exc:  # unpicklable result
            payload_bytes = pickle.dumps(
                (task_id, False, _portable_error(exc), _worker_stats_delta(before))
            )
        try:
            connection.send_bytes(payload_bytes)
        except (BrokenPipeError, OSError):
            break
    connection.close()


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------
_segment_names = itertools.count()


class WorkerPool:
    """Warm process pool with crash recovery and shared-memory transport.

    Parameters
    ----------
    workers:
        Worker processes to keep warm (resolved via
        :func:`resolve_workers` when ``None``).
    use_shm:
        Force shared-memory transport on/off; default follows
        ``REPRO_SHM`` and degrades automatically when segment creation
        fails at runtime.
    """

    def __init__(self, workers: Optional[int] = None, use_shm: Optional[bool] = None) -> None:
        self.workers = resolve_workers(workers)
        self._ctx = get_context()
        self._members: list[_Worker] = []
        self._segments: "OrderedDict[str, _Segment]" = OrderedDict()
        self._use_shm = shm_transport_enabled() if use_shm is None else use_shm
        self._closed = False
        self.stats = {key: 0 for key in _STAT_KEYS}

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def _spawn(self) -> _Worker:
        if self._use_shm:
            # A worker must inherit this process's resource tracker: one
            # started by its own first attach would unlink every segment
            # that worker attached when it exits, and warn of leaks.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        parent_end, child_end = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main, args=(child_end,), daemon=True
        )
        process.start()
        child_end.close()
        return _Worker(process, parent_end)

    def _ensure_members(self) -> None:
        while len(self._members) < self.workers:
            self._members.append(self._spawn())

    def close(self) -> None:
        """Shut the workers down and unlink every published segment."""
        if self._closed:
            return
        self._closed = True
        farewell = b""
        for member in self._members:
            try:
                member.connection.send_bytes(farewell)
            except (BrokenPipeError, OSError):
                pass
        for member in self._members:
            member.process.join(timeout=2)
            if member.process.is_alive():
                member.process.terminate()
                member.process.join(timeout=2)
            try:
                member.connection.close()
            except OSError:
                pass
        self._members.clear()
        for segment in self._segments.values():
            self._unlink(segment)
        self._segments.clear()

    @staticmethod
    def _unlink(segment: _Segment) -> None:
        try:
            segment.shm.close()
        except BufferError:
            pass
        try:
            segment.shm.unlink()
        except (FileNotFoundError, OSError):
            pass

    # -- shared-memory transport ---------------------------------------
    def publish(self, data) -> Optional[ShmRef]:
        """Publish one buffer into shared memory; return its handle.

        ``data`` is anything exposing the buffer protocol (``bytes``,
        ``array.array``, numpy arrays, ``memoryview``).  Publishing the
        same content twice returns the same pinned segment.  Returns
        ``None`` when shared memory is off or unavailable — callers ship
        the data inline instead.
        """
        if self._closed or not self._use_shm:
            return None
        buffer = memoryview(data).cast("B")
        digest = hashlib.blake2b(buffer, digest_size=16).hexdigest()
        segment = self._segments.get(digest)
        if segment is not None:
            segment.pins += 1
            self._segments.move_to_end(digest)
            return segment.ref
        try:
            from multiprocessing import shared_memory

            name = f"repro-{os.getpid()}-{next(_segment_names)}-{digest[:12]}"
            shm = shared_memory.SharedMemory(create=True, size=max(1, buffer.nbytes), name=name)
        except Exception:
            # No /dev/shm, permissions, exhausted space: degrade for good.
            self._use_shm = False
            return None
        shm.buf[: buffer.nbytes] = buffer
        ref = ShmRef(name=shm.name, size=buffer.nbytes, digest=digest)
        self._segments[digest] = _Segment(shm=shm, ref=ref, pins=1)
        self.stats["segments_published"] += 1
        self._evict_segments()
        self._gauge_segments()
        return ref

    def release(self, ref: Optional[ShmRef]) -> None:
        """Unpin one published segment (it stays until LRU eviction)."""
        if ref is None:
            return
        segment = self._segments.get(ref.digest)
        if segment is not None and segment.pins > 0:
            segment.pins -= 1
        self._evict_segments()

    def _evict_segments(self) -> None:
        unpinned = [key for key, seg in self._segments.items() if seg.pins <= 0]
        while len(self._segments) > MAX_SEGMENTS and unpinned:
            key = unpinned.pop(0)
            self._unlink(self._segments.pop(key))
            self.stats["segments_evicted"] += 1
        self._gauge_segments()

    def _gauge_segments(self) -> None:
        _metrics.set_gauge("pool.segments", len(self._segments))
        _metrics.set_gauge(
            "pool.shm_bytes", sum(seg.ref.size for seg in self._segments.values())
        )

    @staticmethod
    def _shared_bytes(payload) -> int:
        """Bytes a task would have shipped inline but shares by handle."""
        total = 0
        stack = [payload]
        depth = 0
        while stack and depth < 10_000:
            depth += 1
            item = stack.pop()
            if isinstance(item, ShmRef):
                total += item.size
            elif isinstance(item, (tuple, list)):
                stack.extend(item)
            elif isinstance(item, dict):
                stack.extend(item.values())
        return total

    # -- dispatch -------------------------------------------------------
    def map(
        self,
        fn: Callable[[T], R],
        payloads: Sequence[T],
        keys: Optional[Sequence] = None,
    ) -> list[R]:
        """Apply ``fn`` to every payload across the warm workers, in order.

        ``keys`` (optional, parallel to ``payloads``) pins tasks that share
        a key to one worker — round-robin by first appearance — so
        worker-side caches are reused instead of rebuilt per worker.
        Results are bit-identical to ``[fn(p) for p in payloads]`` at any
        worker count; a crashed worker's task is resubmitted elsewhere.
        """
        if self._closed:
            raise ConfigurationError("WorkerPool is closed")
        payloads = list(payloads)
        if not payloads:
            return []
        if self.workers == 1 or len(payloads) == 1 or in_worker():
            return [fn(payload) for payload in payloads]
        with _obs_span("pool.map", tasks=len(payloads), workers=self.workers):
            return self._map_parallel(fn, payloads, keys)

    def _map_parallel(self, fn, payloads: list, keys: Optional[Sequence]) -> list:
        self._ensure_members()
        total = len(payloads)
        if keys is not None and len(keys) != total:
            raise ConfigurationError(
                f"keys must match payloads: {len(keys)} != {total}"
            )
        # Deterministic affinity: key -> worker slot by first appearance.
        slot_of_key: dict = {}
        queues: list[deque] = [deque() for _ in range(self.workers)]
        shared: deque = deque()
        messages: list[bytes] = []
        shipped = 0
        shared_bytes = 0
        for task_id, payload in enumerate(payloads):
            message = task_id.to_bytes(8, "little") + pickle.dumps((fn, payload))
            messages.append(message)
            shipped += len(message)
            shared_bytes += self._shared_bytes(payload)
            if keys is not None and keys[task_id] is not None:
                key = keys[task_id]
                slot = slot_of_key.setdefault(key, len(slot_of_key) % self.workers)
                queues[slot].append(task_id)
            else:
                shared.append(task_id)
        results: list = [None] * total
        failures: dict[int, Exception] = {}
        attempts = [0] * total
        done = 0
        cache_hits = 0
        cache_misses = 0
        _metrics.set_gauge("pool.queue_depth", total)

        def _next_task(slot: int) -> Optional[int]:
            if queues[slot]:
                return queues[slot].popleft()
            if shared:
                return shared.popleft()
            # Steal from dead slots only (their tasks were re-queued on
            # respawn; live slots keep their affinity).
            return None

        def _requeue(slot: int, task_id: int) -> None:
            attempts[task_id] += 1
            self.stats["resubmissions"] += 1
            _metrics.add("pool.resubmissions")
            if attempts[task_id] >= MAX_TASK_ATTEMPTS:
                failures[task_id] = WorkerCrashError(
                    f"task {task_id} crashed its worker "
                    f"{attempts[task_id]} times"
                )
                return
            # Give the task to the shared queue: any live worker may pick
            # it up (its bound worker just died).
            shared.appendleft(task_id)

        def _revive(slot: int) -> None:
            member = self._members[slot]
            if member.task is not None:
                task_id, _ = member.task
                member.task = None
                _requeue(slot, task_id)
            try:
                member.connection.close()
            except OSError:
                pass
            if member.process.is_alive():
                member.process.terminate()
            member.process.join(timeout=2)
            self._members[slot] = self._spawn()
            self.stats["respawns"] += 1

        while done < total:
            progressed = False
            for slot, member in enumerate(self._members):
                if member.task is not None:
                    continue
                task_id = _next_task(slot)
                if task_id is None:
                    continue
                if task_id in failures:
                    done += 1
                    progressed = True
                    continue
                try:
                    member.connection.send_bytes(messages[task_id])
                    member.task = (task_id, messages[task_id])
                    progressed = True
                except (BrokenPipeError, OSError):
                    # Send found the worker dead: requeue and respawn.
                    _requeue(slot, task_id)
                    member.task = None
                    _revive(slot)
                    progressed = True
            busy = [member for member in self._members if member.task is not None]
            if not busy:
                if progressed:
                    continue
                # Nothing in flight and nothing dispatchable: every
                # remaining task already failed terminally.
                break
            ready = _connection_wait([member.connection for member in busy], timeout=5.0)
            if not ready:
                # Nobody answered: check for silently dead workers.
                for slot, member in enumerate(self._members):
                    if member.task is not None and not member.process.is_alive():
                        _revive(slot)
                continue
            ready_set = set(ready)
            for slot, member in enumerate(self._members):
                if member.task is None or member.connection not in ready_set:
                    continue
                try:
                    data = member.connection.recv_bytes()
                except (EOFError, OSError):
                    _revive(slot)
                    continue
                task_id, ok, value, worker_stats = pickle.loads(data)
                member.task = None
                cache_hits += worker_stats.get("cache_hits", 0)
                cache_misses += worker_stats.get("cache_misses", 0)
                if ok:
                    results[task_id] = value
                else:
                    failures[task_id] = value
                done += 1
        self.stats["dispatches"] += 1
        self.stats["tasks"] += total
        self.stats["bytes_shipped"] += shipped
        self.stats["bytes_shared"] += shared_bytes
        self.stats["worker_cache_hits"] += cache_hits
        self.stats["worker_cache_misses"] += cache_misses
        _metrics.add("pool.dispatches")
        _metrics.add("pool.tasks", total)
        _metrics.add("pool.bytes_shipped", shipped)
        _metrics.add("pool.bytes_shared", shared_bytes)
        _metrics.add("pool.worker_cache_hits", cache_hits)
        _metrics.add("pool.worker_cache_misses", cache_misses)
        _metrics.set_gauge("pool.queue_depth", 0)
        if failures:
            raise failures[min(failures)]
        return results


# ----------------------------------------------------------------------
# the process-wide registry BatchExecutor dispatches through
# ----------------------------------------------------------------------
_pools: dict[int, WorkerPool] = {}
_pools_pid: Optional[int] = None


def get_pool(workers: int) -> WorkerPool:
    """The process-wide warm pool for ``workers`` (created on first use).

    Pools are keyed by worker count, survive across ``.map()`` calls and
    shut down at interpreter exit; a forked child never inherits its
    parent's registry entries (they are re-keyed per PID).
    """
    global _pools_pid
    workers = resolve_workers(workers)
    if _pools_pid != os.getpid():
        # Forked child (or first use): the parent's pools are not ours.
        _pools.clear()
        _pools_pid = os.getpid()
        atexit.register(shutdown_pools)
    pool = _pools.get(workers)
    if pool is None or pool.closed:
        pool = WorkerPool(workers)
        _pools[workers] = pool
    return pool


def shutdown_pools() -> None:
    """Close every registered pool (idempotent; runs at interpreter exit)."""
    for pool in list(_pools.values()):
        pool.close()
    _pools.clear()
