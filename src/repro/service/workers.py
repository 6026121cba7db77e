"""The service's multi-process worker pool and crash-safe job ledger.

Queued queries dispatch over a :class:`~repro.engine.batch.BatchExecutor`
with ``max_parallel`` worker processes — since the executor rides the warm
:mod:`~repro.engine.pool` runtime, the service's workers persist across
batches, and each keeps one **worker-global**
:class:`~repro.api.session.Session` whose compiled kernels and graphs are
reused from job to job.  Workers return the finished ``repro-result``
document (a plain dict, picklable); the parent process performs every
store write, so the manifest is single-writer by construction.

Determinism: a query's cell seeds derive from its own ``seed`` field
(:func:`~repro.engine.batch.derive_task_seed`), so the same query document
yields the same rows at any ``max_parallel`` — the pool only changes *when*
a document is computed, never *what* it says.

Crash safety follows the working-directory discipline of orchestration
frameworks like ACToR: before a query is computed, its document is recorded
as a job file (``jobs/<hash>.json``, written atomically); the file is
removed only after the result reaches the store.  A process that dies
mid-compute leaves its job files behind, and
:meth:`QueryService.recover <repro.service.service.QueryService.recover>`
re-runs them on the next startup.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.api.query import Query
from repro.api.session import Session, worker_session
from repro.engine.batch import BatchExecutor
from repro.errors import ConfigurationError
from repro.utils.io import atomic_write_json

#: Document tag and schema version of the crash-safety job files.
JOB_KIND = "repro-service-job"
JOB_VERSION = 1


@dataclass(frozen=True)
class ServiceConfig:
    """Working/output-directory and fan-out configuration of one service.

    ``root`` holds everything the service persists: the content-addressed
    store (``objects/``, ``state/``, ``manifest.json``) and the job ledger
    (``jobs/``).  ``max_parallel`` bounds the worker-pool fan-out;
    ``l1_limit`` the in-process document cache.  ``store_max_objects`` /
    ``store_max_bytes`` bound the on-disk tier: when either is set, the
    service runs :meth:`~repro.service.store.ResultStore.gc` at startup and
    after every store write (``None`` leaves the store unbounded).
    """

    root: Path
    max_parallel: int = 1
    l1_limit: int = 128
    store_max_objects: Optional[int] = None
    store_max_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "root", Path(self.root))
        if self.max_parallel < 1:
            raise ConfigurationError(
                f"max_parallel must be >= 1, got {self.max_parallel}"
            )
        for name in ("store_max_objects", "store_max_bytes"):
            bound = getattr(self, name)
            if bound is not None and bound < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {bound}")

    @property
    def jobs_dir(self) -> Path:
        """The job-ledger directory (one file per in-flight query)."""
        return self.root / "jobs"

    def job_path(self, digest: str) -> Path:
        """The ledger file of one in-flight query, keyed by its hash."""
        return self.jobs_dir / f"{digest}.json"


def write_job(config: ServiceConfig, digest: str, document: dict) -> Path:
    """Record one query as in-flight before computing it (crash safety)."""
    path = config.job_path(digest)
    atomic_write_json(
        path,
        {"kind": JOB_KIND, "version": JOB_VERSION, "hash": digest, "query": document},
    )
    return path


def clear_job(config: ServiceConfig, digest: str) -> None:
    """Remove one query's ledger file once its result reached the store."""
    try:
        os.unlink(config.job_path(digest))
    except OSError:
        pass


def pending_jobs(config: ServiceConfig) -> list[dict]:
    """The job documents left behind by a crashed run, hash-sorted.

    Unreadable or mistagged files are skipped (a torn write cannot happen
    — job files are written atomically — but a foreign file in ``jobs/``
    should not wedge startup).
    """
    import json

    jobs = []
    if not config.jobs_dir.exists():
        return jobs
    for path in sorted(config.jobs_dir.glob("*.json")):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            continue
        if document.get("kind") != JOB_KIND or document.get("version") != JOB_VERSION:
            continue
        jobs.append(document)
    return jobs


def run_query_job(document: dict) -> dict:
    """Worker entry point: compute one query document in the worker's Session.

    Module-level (picklable) for :class:`~repro.engine.batch.BatchExecutor`
    dispatch; the returned ``repro-result`` dict travels back to the parent,
    which owns the store.  The Session is **worker-global**
    (:func:`~repro.api.session.worker_session`): the warm pool keeps its
    workers alive across dispatches, so repeated jobs reuse the worker's
    compiled kernels, graphs and plans instead of rebuilding them per job.
    """
    return worker_session().run(Query.from_dict(document)).as_dict()


class QueryWorkerPool:
    """Fan queued query documents out over BatchExecutor-backed Sessions.

    With ``max_parallel == 1`` (or a single job) the pool runs in-process
    on the supplied warm session — no pickling, shared caches; otherwise
    the documents shard across ``max_parallel`` worker processes, each
    answering with its finished result document in queue order.
    """

    def __init__(self, max_parallel: int = 1, session: Optional[Session] = None) -> None:
        if max_parallel < 1:
            raise ConfigurationError(f"max_parallel must be >= 1, got {max_parallel}")
        self.max_parallel = max_parallel
        self._session = session

    def session(self) -> Session:
        """The pool's in-process session (created on first use)."""
        if self._session is None:
            self._session = Session()
        return self._session

    def run_many(self, documents: Sequence[dict]) -> list[dict]:
        """Compute every queued query document; results in queue order."""
        documents = list(documents)
        if self.max_parallel > 1 and len(documents) > 1:
            return BatchExecutor(self.max_parallel).map(run_query_job, documents)
        session = self.session()
        return [session.run(Query.from_dict(document)).as_dict() for document in documents]
