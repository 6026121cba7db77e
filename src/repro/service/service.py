"""The query service: cache tiers, resume, one compute path — one front door.

:class:`QueryService` sits on top of the Session/Query API and answers one
question: *given this validated query document, what is its result
document?* — as cheaply as truth allows:

1. **L1/L2 hit** — the query's canonical hash is in the store: the stored
   bytes of the ``repro-result`` document are returned verbatim — zero
   recomputation, zero encoding.
2. **Resume** — a *sampling* query misses, but its family hash (the spec
   minus ``samples``/``workers``) has stored estimator state with a draw
   count within the requested budget: the Welford moments and P² sketches
   continue from where they stopped, so only the *new* draws are simulated
   and the answer is bit-for-bit the one a fresh run with the combined
   budget would produce.
3. **Miss** — the query computes cold through
   :meth:`Session.run <repro.api.session.Session.run>` on the service's own
   session — the same path as any library call — and a sampling query's
   estimator state persists next to its result, which makes step 2
   possible next time.

:meth:`QueryService.execute` and :meth:`QueryService.execute_stream` drive
one private generator through those steps: lookup, job-ledger write,
compute, store put, GC, ledger clear.  ``execute`` runs a sampling query's
budget as one step and drops the progress events; ``execute_stream`` splits
it into up to :data:`DEFAULT_STREAM_CHUNKS` steps and yields them.

The session is built as ``Session(workers=max_parallel)``, so
``max_parallel`` (``repro serve --max-parallel``) is the worker count every
cold query runs at: a multi-cell query splits its cells over that many warm
pool processes (:mod:`repro.engine.pool`).  A query's own ``workers`` field
stays part of its canonical hash but never sets the server's process
count; by the determinism contract it changes no row either.

Every compute is bracketed by a crash-safety job file (see
:mod:`repro.service.workers`); :meth:`QueryService.recover` re-runs jobs a
previous process left behind.  The service is thread-safe (one internal
lock serialises execution — Sessions are not thread-safe), which is what
the threading HTTP front door in :mod:`repro.service.http` relies on.

Metrics (``REPRO_OBS=on``): ``service.requests``, per-tier counters
``service.cache.{l1_hits,l2_hits,resumes,misses}`` and the
``service.latency`` timer; spans ``service.execute`` / ``service.compute``
nest the engine's own.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.api.query import Query
from repro.api.session import Session
from repro.dist.sampling import DistributionFold
from repro.errors import ConfigurationError
from repro.obs import metrics as _metrics
from repro.obs.spans import span as _obs_span
from repro.service.store import ResultStore
from repro.service.workers import ServiceConfig, clear_job, pending_jobs, write_job
from repro.utils.io import encode_json

#: Progress chunks a streamed sampling query is split into (at most; each
#: chunk continues the previous one's estimator state, so the final answer
#: is identical to a single-run evaluation of the full budget).
DEFAULT_STREAM_CHUNKS = 8

#: ``service.cache.*`` counter of each tier.
TIER_METRICS = {"l1": "l1_hits", "l2": "l2_hits", "resume": "resumes", "miss": "misses"}


@dataclass(frozen=True)
class ServeOutcome:
    """One answered query: its address, the tier and the result document.

    ``tier`` is ``"l1"`` / ``"l2"`` (store hits), ``"resume"`` (continued
    estimator state) or ``"miss"`` (computed cold).  ``cached`` collapses
    that to the ``X-Repro-Cache: hit|resume|miss`` header value.  ``body``
    is the document's stored bytes (see
    :meth:`~repro.service.store.ResultStore.get`), which the HTTP front
    door sends verbatim; ``document`` decodes them on first access.
    """

    digest: str
    tier: str
    body: bytes

    @cached_property
    def document(self) -> dict:
        return json.loads(self.body)

    @property
    def cached(self) -> str:
        if self.tier in ("l1", "l2"):
            return "hit"
        return self.tier

    @property
    def line(self) -> bytes:
        """The NDJSON ``{"type": "result"}`` line that ends a streamed answer.

        ``encode_json`` of the event ``{"type": "result", "hash", "cache",
        "document"}``.  A compact stored body — the only form
        :meth:`~repro.service.store.ResultStore.put` writes — is spliced in
        as it is, so the line neither decodes nor re-encodes the document;
        an object an earlier version wrote indented is decoded and
        re-encoded, so the line is always one line.
        """
        body = self.body.rstrip(b"\n")
        event = {"type": "result", "hash": self.digest, "cache": self.cached}
        if b"\n" in body:
            return encode_json(dict(event, document=self.document))
        # The hash is hex and the tier a plain word, so the placeholder
        # occurs once.
        return encode_json(dict(event, document=None)).replace(
            b'"document":null', b'"document":' + body, 1
        )


class QueryService:
    """Store-backed, resumable execution of validated queries."""

    def __init__(
        self,
        root: Union[str, Path] = "repro-store",
        max_parallel: int = 1,
        l1_limit: int = 128,
        store_max_objects: Optional[int] = None,
        store_max_bytes: Optional[int] = None,
    ) -> None:
        self.config = ServiceConfig(
            root=Path(root),
            max_parallel=max_parallel,
            l1_limit=l1_limit,
            store_max_objects=store_max_objects,
            store_max_bytes=store_max_bytes,
        )
        self.store = ResultStore(self.config.root, l1_limit=l1_limit)
        self.session = Session(workers=max_parallel)
        self._lock = threading.Lock()
        self._maybe_gc()

    def _maybe_gc(self) -> None:
        """Run the store's LRU sweep when the config bounds the on-disk tier."""
        if self.config.store_max_objects is not None or self.config.store_max_bytes is not None:
            self.store.gc(
                max_objects=self.config.store_max_objects,
                max_bytes=self.config.store_max_bytes,
            )

    def _put_meta(self, query: Query) -> dict:
        """Manifest metadata of one stored result (mode, resume family)."""
        meta = {"mode": query.mode}
        if self._resumable(query):
            # The family link lets the GC sweep drop a family's estimator
            # state once no stored result references it anymore.
            meta["family"] = query.family_hash()
        return meta

    # ------------------------------------------------------------------
    # the front door
    # ------------------------------------------------------------------
    def execute(self, query: Query) -> ServeOutcome:
        """Answer one query through the cache tiers (see the module docs)."""
        started = time.perf_counter()
        with self._lock, _obs_span("service.execute", mode=query.mode):
            *_, outcome = self._answer(query, chunks=1)
        _count(outcome, started)
        return outcome

    def execute_document(self, document: dict) -> ServeOutcome:
        """:meth:`execute` for a raw ``repro-query`` dict (the HTTP body)."""
        return self.execute(Query.from_dict(document))

    def execute_stream(
        self, query: Query, chunks: int = DEFAULT_STREAM_CHUNKS
    ) -> Iterator[Union[dict, ServeOutcome]]:
        """Answer one query as a stream of progress events, then its outcome.

        For a resumable sampling query the draw budget splits into up to
        ``chunks`` increments; after each one a ``{"type": "progress"}``
        event reports every sampled cell's current estimate with its
        standard error and 95% confidence interval — the client watches the
        interval tighten live.  Chunking changes nothing about the answer
        (each chunk resumes the previous one's state).  The last item is the
        :class:`ServeOutcome` a non-streamed :meth:`execute` would return —
        its body is what the store persists — whose
        :attr:`~ServeOutcome.line` is the final ``{"type": "result"}``
        NDJSON line.  Store hits and non-sampling queries yield the outcome
        alone.
        """
        if chunks < 1:
            raise ConfigurationError(f"chunks must be >= 1, got {chunks}")
        started = time.perf_counter()
        with self._lock:
            for event in self._answer(query, chunks):
                if isinstance(event, ServeOutcome):
                    outcome = event
                else:
                    yield event
        _count(outcome, started)
        yield outcome

    def _answer(self, query: Query, chunks: int) -> Iterator[Union[dict, ServeOutcome]]:
        """The one compute path: progress events, then the :class:`ServeOutcome`.

        A store hit yields its outcome alone.  A miss is recorded in the job
        ledger, computed on the service's session (one step per entry of
        :func:`_steps`, a progress event after each step of a resumable
        query), stored — the sampled cells' folds, then the result — swept
        by the GC when the store is bounded, and cleared from the ledger.
        """
        digest = query.canonical_hash()
        body, tier = self.store.get(digest)
        if body is not None:
            yield ServeOutcome(digest, tier, body)
            return
        write_job(self.config, digest, query.to_dict())
        try:
            resumable = self._resumable(query)
            folds = self._load_family_folds(query) if resumable else None
            tier = "resume" if folds else "miss"
            for step in _steps(query, folds, chunks):
                with _obs_span("service.compute", mode=query.mode):
                    result = self.session.run(step, folds=folds)
                if resumable:
                    cells = [_progress(row) for row in result.rows if row["method"] == "sample"]
                    yield {
                        "type": "progress",
                        "draws": step.samples,
                        "samples": query.samples,
                        "cells": cells,
                    }
            if resumable:
                self._put_folds(query, folds)
            body = self.store.put(digest, result.as_dict(), meta=self._put_meta(query))
            self._maybe_gc()
        finally:
            clear_job(self.config, digest)
        yield ServeOutcome(digest, tier, body)

    def recover(self) -> list[str]:
        """Re-run the job files a crashed process left behind.

        Returns the recovered hashes.  A job whose result actually reached
        the store before the crash resolves as a store hit (zero
        recompute); the rest compute cold.  Either way the ledger entry is
        cleared.  A job whose query this version no longer accepts (say, one
        that repeats an axis value) is cleared unanswered and reported on
        stderr, so it cannot stop the service from starting.
        """
        recovered = []
        for job in pending_jobs(self.config):
            try:
                outcome = self.execute_document(job["query"])
            except ConfigurationError as error:
                print(f"repro serve: dropped job {job['hash']}: {error}", file=sys.stderr)
                clear_job(self.config, job["hash"])
                continue
            clear_job(self.config, job["hash"])
            recovered.append(outcome.digest)
        return recovered

    # ------------------------------------------------------------------
    # resumable estimator state
    # ------------------------------------------------------------------
    @staticmethod
    def _resumable(query: Query) -> bool:
        """Whether the query's estimators can persist and resume."""
        return query.mode == "distribution" and "sample" in query.methods

    def _load_family_folds(self, query: Query) -> dict:
        """The stored per-cell estimator folds usable at this budget."""
        stored = self.store.get_state(query.family_hash())
        if stored is None or int(stored.get("samples", 0)) > query.samples:
            # None stored, or drawn under a larger budget: the estimate
            # cannot run backwards.
            return {}
        return {
            key: DistributionFold.from_state(state)
            for key, state in (stored.get("states") or {}).items()
        }

    def _put_folds(self, query: Query, folds: dict) -> None:
        """Persist the sampled cells' estimator state under the family hash."""
        states = {key: fold.state_dict() for key, fold in folds.items()}
        self.store.put_state(query.family_hash(), query.samples, states)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        """The health/diagnostics payload of ``GET /v1/healthz``."""
        return {
            "status": "ok",
            "max_parallel": self.config.max_parallel,
            "store": self.store.stats(),
        }


def _count(outcome: ServeOutcome, started: float) -> None:
    """Record one answered request in the service metrics."""
    _metrics.add("service.requests")
    _metrics.add(f"service.cache.{TIER_METRICS[outcome.tier]}")
    _metrics.observe("service.latency", time.perf_counter() - started)


def _steps(query: Query, folds: Optional[dict], chunks: int) -> list[Query]:
    """The queries one compute runs, in order; the last is ``query`` itself.

    A resumable query (``folds`` not ``None``) splits its draw budget into
    up to ``chunks`` cumulative steps past the draws its folds already
    hold; steps before the last run the sampled cells only.  Any other
    query is one step.
    """
    if folds is None:
        return [query]
    consumed = min((fold.count for fold in folds.values()), default=0)
    total = query.samples
    budgets = sorted(
        {
            max(consumed + 1, (total * step) // chunks)
            for step in range(1, chunks + 1)
            if (total * step) // chunks > consumed
        }
    )
    sampled_only = query.with_changes(methods=("sample",))
    return [
        sampled_only.with_changes(samples=budget) for budget in budgets if budget < total
    ] + [query]


def _progress(row: dict) -> dict:
    """One sampled cell's entry of a streamed progress event."""
    mean = row["average"]["mean"]
    std_error = (row.get("uncertainty") or {}).get("average", {}).get("std_error")
    return {
        "topology": row["topology"],
        "n": row["n"],
        "algorithm": row["algorithm"],
        "draws": row["samples"],
        "mean": mean,
        "std_error": std_error,
        "ci95": None if std_error is None else [mean - 1.96 * std_error, mean + 1.96 * std_error],
    }
