"""Memoisation of ball decisions.

Every measure in the paper is a worst case *over identifier assignments*, so
the adversaries of :mod:`repro.core.adversary` evaluate the same algorithm on
the same graph under thousands of permutations.  Across those permutations
(and across the nodes of a single run) the balls handed to
``algorithm.decide`` repeat massively: a radius-``r`` ball is determined by a
small neighbourhood, and on structured topologies the number of distinct
neighbourhood contents is far below the number of evaluations.

:class:`DecisionCache` memoises ``decide`` on a canonical ball signature
(:func:`repro.model.ball.ball_signature`):

* for algorithms that declare ``order_invariant = True`` the signature is
  **id-relabeled** (identifiers replaced by their rank inside the ball), so
  balls that differ only by an order-preserving renaming share one entry;
* for all other algorithms the signature keeps the actual identifiers, which
  is sound for every deterministic LOCAL algorithm — indistinguishable views
  must receive identical outputs.

Hit/miss statistics are tracked so benchmarks and sweep campaigns can report
cache effectiveness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.model.ball import BallView

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.core.algorithm import BallAlgorithm

#: Sentinel distinguishing "not cached" from a cached ``None`` decision
#: (``None`` is a meaningful outcome: "keep growing the ball").
MISSING = object()

#: The one bound on a session's decision table (adversary searches, witness
#: traces, API sessions and the kernel's fallback rule): long searches on
#: graphs with mostly-distinct balls would otherwise grow a table linearly
#: with the number of evaluations.
DECISION_CACHE_MAX_ENTRIES = 1 << 18


@dataclass
class CacheStats:
    """Lookup counters of one :class:`DecisionCache`."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        """Total number of lookups performed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> dict[str, float]:
        """JSON-friendly summary (used by benchmark artifacts and sweeps)."""
        return {"hits": self.hits, "misses": self.misses, "hit_rate": self.hit_rate}


class DecisionCache:
    """Memoise one algorithm's ``decide`` on canonical ball signatures.

    A cache is bound to a single algorithm instance; binding (rather than
    mixing algorithms in one table) removes any possibility of cross-
    algorithm key collisions.

    Parameters
    ----------
    algorithm:
        The deterministic ball algorithm whose decisions are memoised.
    relabel_ids:
        Override the key normalisation.  Defaults to the algorithm's own
        ``order_invariant`` declaration; forcing ``True`` for an algorithm
        that inspects identifier *values* is unsound.
    max_entries:
        Optional bound on the table size.  When full, new entries are simply
        not inserted (lookups still work), which keeps long sweep campaigns
        at bounded memory without invalidation complexity.
    pattern_limit:
        Balls with more than this many members bypass the cache entirely
        (``None`` disables the bypass).  Identifier patterns that long
        essentially never repeat across random permutations, yet computing
        their keys costs ``O(k log k)`` per decision — skipping them keeps
        the memoisation overhead where the hits are.  The default of 32
        comfortably covers every ball an exhaustive (``n <= 9``) search can
        produce.
    """

    #: Default member-count threshold above which balls are not memoised.
    DEFAULT_PATTERN_LIMIT = 32

    def __init__(
        self,
        algorithm: "BallAlgorithm",
        relabel_ids: Optional[bool] = None,
        max_entries: Optional[int] = None,
        pattern_limit: Optional[int] = DEFAULT_PATTERN_LIMIT,
    ) -> None:
        self.algorithm = algorithm
        self.relabel_ids = (
            bool(getattr(algorithm, "order_invariant", False))
            if relabel_ids is None
            else relabel_ids
        )
        self.max_entries = max_entries
        self.pattern_limit = pattern_limit
        self.stats = CacheStats()
        self._table: dict[tuple, Any] = {}
        # Set by the first FrontierRunner that adopts this cache.  Runner keys
        # embed session-interned structural ids, which are meaningless in any
        # other session, so a cache must never serve two sessions.
        self.session_owner: Any = None

    def __len__(self) -> int:
        return len(self._table)

    def key_for(self, ball: BallView) -> tuple:
        """The cache key of a materialised ball view."""
        return ball.signature(relabel_ids=self.relabel_ids)

    def lookup(self, key: tuple) -> Any:
        """Cached decision for ``key``, or :data:`MISSING` (updates stats)."""
        value = self._table.get(key, MISSING)
        if value is MISSING:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    def store(self, key: tuple, output: Any) -> None:
        """Record a decision (a ``None`` decision is cached too)."""
        if self.max_entries is None or len(self._table) < self.max_entries:
            self._table[key] = output

    def decide(self, ball: BallView) -> Any:
        """Memoised ``algorithm.decide(ball)`` (bypassed above the limit)."""
        if self.pattern_limit is not None and ball.size > self.pattern_limit:
            return self.algorithm.decide(ball)
        key = self.key_for(ball)
        output = self.lookup(key)
        if output is MISSING:
            output = self.algorithm.decide(ball)
            self.store(key, output)
        return output

    def bind_session(self, session: Any) -> None:
        """Claim the cache for one runner session (idempotent for that session).

        The engine's cache keys contain structural ids interned *per
        session*, so entries written under one session are garbage under
        another — sharing a cache between sessions (e.g. two runners on
        different graphs) would silently return wrong decisions.  Build one
        cache per :class:`~repro.engine.frontier.FrontierRunner` instead.
        """
        if self.session_owner is not None and self.session_owner is not session:
            raise ValueError(
                "this DecisionCache is already bound to another engine session; "
                "its keys are session-local — create a fresh cache per FrontierRunner"
            )
        self.session_owner = session

    def clear(self) -> None:
        """Drop all entries and reset the statistics."""
        self._table.clear()
        self.stats = CacheStats()
