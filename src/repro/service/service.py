"""The query service: cache tiers, resume, worker dispatch — one front door.

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
3. **Miss** — the query computes cold: distribution queries with sampled
   cells run on the service's own session through
   :meth:`Session.run <repro.api.session.Session.run>` — the same path as
   any library call — and the service persists their estimator state,
   which makes step 2 possible next time; everything else dispatches
   through the :class:`~repro.service.workers.QueryWorkerPool`.

Every compute is bracketed by a crash-safety job file (see
:mod:`repro.service.workers`); :meth:`QueryService.recover` re-runs jobs a
previous process left behind.  The service is thread-safe (one internal
lock serialises execution — Sessions are not thread-safe), which is what
the threading HTTP front door in :mod:`repro.service.http` relies on.

Metrics (``REPRO_OBS=on``): ``service.requests``, per-tier counters
``service.cache.{l1_hits,l2_hits,resumes,misses}``, the
``service.queue_depth`` gauge and the ``service.latency`` timer; spans
``service.execute`` / ``service.compute`` nest the engine's own.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from repro.api.query import Query
from repro.api.session import Session
from repro.dist.sampling import DistributionFold
from repro.errors import ConfigurationError
from repro.obs import metrics as _metrics
from repro.obs.spans import span as _obs_span
from repro.service.store import ResultStore
from repro.service.workers import (
    QueryWorkerPool,
    ServiceConfig,
    clear_job,
    pending_jobs,
    write_job,
)

#: Progress chunks a streamed sampling query is split into (at most; each
#: chunk continues the previous one's estimator state, so the final answer
#: is identical to a single-run evaluation of the full budget).
DEFAULT_STREAM_CHUNKS = 8


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


class QueryService:
    """Store-backed, resumable execution of validated queries."""

    def __init__(
        self,
        root: Union[str, Path] = "repro-store",
        max_parallel: int = 1,
        l1_limit: int = 128,
        session: Optional[Session] = None,
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
        self.session = session if session is not None else Session()
        self.pool = QueryWorkerPool(max_parallel, session=self.session)
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
        with self._lock:
            with _obs_span("service.execute", mode=query.mode):
                outcome = self._execute_locked(query)
        _metrics.add("service.requests")
        _metrics.add(f"service.cache.{self._tier_metric(outcome.tier)}")
        _metrics.observe("service.latency", time.perf_counter() - started)
        return outcome

    @staticmethod
    def _tier_metric(tier: str) -> str:
        return {"l1": "l1_hits", "l2": "l2_hits", "resume": "resumes"}.get(tier, "misses")

    def _execute_locked(self, query: Query) -> ServeOutcome:
        digest = query.canonical_hash()
        body, tier = self.store.get(digest)
        if body is not None:
            return ServeOutcome(digest, tier, body)
        query_document = query.to_dict()
        write_job(self.config, digest, query_document)
        try:
            with _obs_span("service.compute", mode=query.mode):
                if self._resumable(query):
                    document, tier = self._compute_distribution(query)
                else:
                    document = self.pool.run_many([query_document])[0]
                    tier = "miss"
            body = self.store.put(digest, document, meta=self._put_meta(query))
            self._maybe_gc()
        finally:
            clear_job(self.config, digest)
        return ServeOutcome(digest, tier, body)

    def execute_document(self, document: dict) -> ServeOutcome:
        """:meth:`execute` for a raw ``repro-query`` dict (the HTTP body)."""
        return self.execute(Query.from_dict(document))

    def execute_many(self, documents: Sequence[dict]) -> list[ServeOutcome]:
        """Answer a queue of query documents, fanning cold ones out.

        Store hits and resumable sampling queries answer in-process; the
        remaining cold documents dispatch together over the worker pool
        (``max_parallel`` processes).  Outcomes come back in queue order.
        """
        queue = [Query.from_dict(document) for document in documents]
        _metrics.set_gauge("service.queue_depth", len(queue))
        outcomes: list[Optional[ServeOutcome]] = [None] * len(queue)
        cold: dict[str, list[int]] = {}
        with self._lock:
            for position, query in enumerate(queue):
                digest = query.canonical_hash()
                if digest in cold:
                    # A duplicate of a query already queued cold: computed
                    # once, answered here from the just-populated store.
                    cold[digest].append(position)
                    continue
                body, tier = self.store.get(digest)
                if body is not None:
                    outcomes[position] = ServeOutcome(digest, tier, body)
                elif self._resumable(query):
                    outcomes[position] = self._execute_locked(query)
                else:
                    cold[digest] = [position]
                    write_job(self.config, digest, query.to_dict())
            if cold:
                firsts = [positions[0] for positions in cold.values()]
                computed = self.pool.run_many([queue[i].to_dict() for i in firsts])
                for (digest, positions), document in zip(cold.items(), computed):
                    query = queue[positions[0]]
                    body = self.store.put(digest, document, meta=self._put_meta(query))
                    clear_job(self.config, digest)
                    for position in positions:
                        tier = "miss" if position == positions[0] else "l1"
                        outcomes[position] = ServeOutcome(digest, tier, body)
                self._maybe_gc()
        _metrics.set_gauge("service.queue_depth", 0)
        for outcome in outcomes:
            _metrics.add("service.requests")
            _metrics.add(f"service.cache.{self._tier_metric(outcome.tier)}")
        return outcomes  # type: ignore[return-value]

    def recover(self) -> list[str]:
        """Re-run the job files a crashed process left behind.

        Returns the recovered hashes.  A job whose result actually reached
        the store before the crash resolves as a store hit (zero
        recompute); the rest compute cold.  Either way the ledger entry is
        cleared.
        """
        recovered = []
        for job in pending_jobs(self.config):
            outcome = self.execute_document(job["query"])
            clear_job(self.config, job["hash"])
            recovered.append(outcome.digest)
        return recovered

    # ------------------------------------------------------------------
    # the resumable distribution path
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

    def _compute_distribution(self, query: Query) -> tuple[dict, str]:
        """Evaluate a sampled-distribution query on the Session path.

        Stored estimator folds of the query's family continue (only the new
        draws are simulated); the final folds persist for the next, larger
        budget.
        """
        folds = self._load_family_folds(query)
        tier = "resume" if folds else "miss"
        document = self.session.run(query, folds=folds).as_dict()
        self._put_folds(query, folds)
        return document, tier

    # ------------------------------------------------------------------
    # streaming (chunked progressive responses)
    # ------------------------------------------------------------------
    def execute_stream(
        self, query: Query, chunks: int = DEFAULT_STREAM_CHUNKS
    ) -> Iterator[dict]:
        """Answer one query as a stream of progress events plus the result.

        For a resumable sampling query the draw budget splits into up to
        ``chunks`` increments; after each one a ``{"type": "progress"}``
        event reports every sampled cell's current estimate with its
        standard error and 95% confidence interval — the client watches the
        interval tighten live.  Chunking changes nothing about the answer
        (each chunk resumes the previous one's state), and the final
        ``{"type": "result"}`` event carries the identical document a
        non-streamed :meth:`execute` would return — which is also what the
        store persists.  Store hits and non-sampling queries emit the
        result event alone.
        """
        if chunks < 1:
            raise ConfigurationError(f"chunks must be >= 1, got {chunks}")
        started = time.perf_counter()
        with self._lock:
            digest = query.canonical_hash()
            body, tier = self.store.get(digest)
            if body is None and self._resumable(query):
                yield from self._stream_distribution(query, digest, chunks)
                _metrics.add("service.requests")
                _metrics.observe("service.latency", time.perf_counter() - started)
                return
            if body is None:
                outcome = self._execute_locked(query)
            else:
                outcome = ServeOutcome(digest, tier, body)
        _metrics.add("service.requests")
        _metrics.add(f"service.cache.{self._tier_metric(outcome.tier)}")
        _metrics.observe("service.latency", time.perf_counter() - started)
        yield {"type": "result", "hash": digest, "cache": outcome.cached, "document": outcome.document}

    def _stream_distribution(self, query: Query, digest: str, chunks: int) -> Iterator[dict]:
        """The chunked resumable evaluation behind :meth:`execute_stream`.

        Runs the Session path once per step of the draw-budget schedule,
        each step continuing the previous step's folds; steps before the
        last run the sampled cells only, the last one the whole query.
        """
        folds = self._load_family_folds(query)
        tier = "resume" if folds else "miss"
        consumed = min((fold.count for fold in folds.values()), default=0)
        total = query.samples
        budgets = sorted(
            {
                max(consumed + 1, (total * step) // chunks)
                for step in range(1, chunks + 1)
                if (total * step) // chunks > consumed
            }
        )
        if not budgets or budgets[-1] != total:
            budgets.append(total)
        sampled_only = query.with_changes(methods=("sample",))
        write_job(self.config, digest, query.to_dict())
        try:
            for budget in budgets:
                step = query if budget == total else sampled_only.with_changes(samples=budget)
                result = self.session.run(step, folds=folds)
                yield {
                    "type": "progress",
                    "draws": budget,
                    "samples": total,
                    "cells": [_progress(row) for row in result.rows if row["method"] == "sample"],
                }
            document = result.as_dict()
            self._put_folds(query, folds)
            self.store.put(digest, document, meta=self._put_meta(query))
            self._maybe_gc()
        finally:
            clear_job(self.config, digest)
        _metrics.add(f"service.cache.{self._tier_metric(tier)}")
        yield {"type": "result", "hash": digest, "cache": tier, "document": document}

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
