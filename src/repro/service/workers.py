"""The service's configuration and crash-safe job ledger.

:class:`ServiceConfig` holds what one service persists under and runs at:
the store root, the L1 size, the on-disk bounds and ``max_parallel``, the
worker count of the service's :class:`~repro.api.session.Session` (every
cold query runs at it; see :mod:`repro.service.service`).

Crash safety follows the working-directory discipline of orchestration
frameworks like ACToR: before a query is computed, its document is recorded
as a job file (``jobs/<hash>.json``, written atomically); the file is
removed only after the result reaches the store.  A process that dies
mid-compute leaves its job files behind, and
:meth:`QueryService.recover <repro.service.service.QueryService.recover>`
re-runs them on the next startup.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.errors import ConfigurationError
from repro.utils.io import atomic_write_json

#: Document tag and schema version of the crash-safety job files.
JOB_KIND = "repro-service-job"
JOB_VERSION = 1


@dataclass(frozen=True)
class ServiceConfig:
    """Working/output-directory and worker-count configuration of one service.

    ``root`` holds everything the service persists: the content-addressed
    store (``objects/``, ``state/``, ``manifest.json``) and the job ledger
    (``jobs/``).  ``max_parallel`` is the worker count every cold query
    runs at; ``l1_limit`` bounds the in-process document cache.
    ``store_max_objects`` / ``store_max_bytes`` bound the on-disk tier:
    when either is set, the service runs
    :meth:`~repro.service.store.ResultStore.gc` at startup and after every
    store write (``None`` leaves the store unbounded).
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
