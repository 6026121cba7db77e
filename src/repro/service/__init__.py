"""The query service — ``repro serve``: compute once, serve forever.

The seventh subsystem (see ``docs/architecture.md``), layered on the
Session/Query API.  The paper's measures are pure functions of a validated
:class:`~repro.api.query.Query`, so the service keys every ``repro-result``
document by the query's canonical content hash and answers repeats from a
persistent store instead of recomputing; sampling queries additionally
persist their estimator state and *resume* under larger budgets.

* :mod:`repro.service.store` — the content-addressed, two-tier result
  store (in-process LRU over a sharded atomic-write on-disk layout);
* :mod:`repro.service.workers` — the service configuration and the
  crash-safe job ledger;
* :mod:`repro.service.service` — :class:`QueryService`, the cache-tier /
  resume / compute orchestration on one Session of ``max_parallel``
  workers;
* :mod:`repro.service.http` — the stdlib HTTP front door
  (``POST /v1/query``, ``GET /v1/result/<hash>``, ``GET /v1/healthz``).

Guide: ``docs/service.md``.
"""

from repro.service.http import ServiceServer, make_server, serve
from repro.service.service import QueryService, ServeOutcome
from repro.service.store import ResultStore
from repro.service.workers import ServiceConfig

__all__ = [
    "QueryService",
    "ResultStore",
    "ServeOutcome",
    "ServiceConfig",
    "ServiceServer",
    "make_server",
    "serve",
]
