"""The single, versioned result type of the unified API.

Every mode of the API — simulate, worst-case, distribution, sweep — answers
with the same :class:`Result` shape: the spec echo of the query that asked,
one JSON-friendly row per grid cell, headline ``measures``, aggregate cache
statistics and timing.  Certificates (exact searches, exact distributions)
and standard errors (sampled distributions) travel inside the rows, exactly
where the engine produced them.

The JSON document (``kind: "repro-result"``, ``version: 1``; schema in
``docs/api.md``) round-trips through :meth:`Result.to_json` /
:meth:`Result.from_json`; every ``--output`` of the CLI writes it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.core.measures import get_measure
from repro.errors import AnalysisError
from repro.utils.tables import Table

#: Document tag and schema version (see ``docs/api.md``).
RESULT_KIND = "repro-result"
RESULT_VERSION = 1

#: Per-row keys that vary between runs of the same query (timings, cache
#: luck across worker counts, instrumentation output); parity comparisons
#: strip them.
VOLATILE_ROW_KEYS = ("wall_time_s", "cache", "profile")

#: Table columns per mode (the CLI renders these).
_TABLE_COLUMNS = {
    "simulate": ("topology", "n", "algorithm", "ids", "classic", "average", "sum"),
    "worst-case": (
        "topology", "n", "algorithm", "adversary", "value",
        "evaluations", "exact", "cache_hit_rate",
    ),
    "sweep": (
        "topology", "n", "algorithm", "adversary", "value",
        "evaluations", "exact", "cache_hit_rate",
    ),
    "distribution": (
        "topology", "n", "algorithm", "method", "weight", "avg_mean",
        "avg_std", "avg_q90", "avg_se", "max_mean", "max_std",
    ),
    "scale": (
        "topology", "n", "algorithm", "samples", "avg_mean", "avg_se",
        "max_mean", "max_q90", "nodes_per_s",
    ),
}


def strip_volatile(rows: Sequence[Mapping]) -> list[dict]:
    """Rows without their run-dependent keys (for old-vs-new parity checks)."""
    return [
        {key: value for key, value in row.items() if key not in VOLATILE_ROW_KEYS}
        for row in rows
    ]


def _aggregate_cache(rows: Sequence[Mapping]) -> Optional[dict]:
    """Sum the per-row decision-cache counters (None when no row has any)."""
    hits = misses = 0
    seen = False
    for row in rows:
        cache = row.get("cache")
        if cache:
            seen = True
            hits += int(cache.get("hits", 0))
            misses += int(cache.get("misses", 0))
    if not seen:
        return None
    lookups = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": (hits / lookups) if lookups else 0.0,
    }


def _aggregate_kernel(rows: Sequence[Mapping]) -> Optional[dict]:
    """Summarise the per-row batch-kernel identities (None when untracked).

    Rows evaluated through the batch kernel carry a ``kernel`` entry
    (backend, rule, vectorised flag); the aggregate records the backends and
    rules that contributed plus how many rows the kernel answered.
    """
    backends: set = set()
    rules: set = set()
    vectorized_rows = 0
    seen = 0
    for row in rows:
        kernel = row.get("kernel")
        if kernel:
            seen += 1
            backends.add(kernel.get("backend"))
            rules.add(kernel.get("rule"))
            if kernel.get("vectorized"):
                vectorized_rows += 1
    if not seen:
        return None
    return {
        "backends": sorted(backend for backend in backends if backend),
        "rules": sorted(rule for rule in rules if rule),
        "rows": seen,
        "vectorized_rows": vectorized_rows,
    }


def _headline_measures(mode: str, rows: Sequence[Mapping]) -> dict:
    """The headline scalars of a row set (documented per mode in docs/api.md).

    ``simulate``: the worst value of each measure over the grid cells.
    ``worst-case``/``sweep``: the worst objective value found, keyed by the
    measure's paper-facing name.  ``distribution``: the worst *mean* of each
    measure's marginal over the cells (full statistics stay in the rows).
    """
    if not rows:
        return {}
    if mode == "simulate":
        return {
            "classic": max(row["classic"] for row in rows),
            "average": max(row["average"] for row in rows),
            "sum": max(row["sum"] for row in rows),
        }
    if mode in ("worst-case", "sweep"):
        name = get_measure(rows[0]["objective"]).name
        return {name: max(row["value"] for row in rows)}
    if mode in ("distribution", "scale"):
        return {
            "average": max(row["average"]["mean"] for row in rows),
            "classic": max(row["max"]["mean"] for row in rows),
        }
    raise AnalysisError(f"unknown result mode {mode!r}")


@dataclass(frozen=True)
class Result:
    """Uniform answer of every API mode: spec echo, rows, measures, stats.

    ``rows`` keep the exact per-cell dictionaries the engine layers emit
    (including certificates and standard errors where present), so the
    Result is a lossless superset of every legacy return shape.
    """

    #: The mode that produced the rows (one of :data:`repro.api.query.MODES`).
    mode: str
    #: Spec echo: the originating query's :meth:`~repro.api.query.Query.to_dict`.
    query: dict
    #: One JSON-friendly dict per grid cell, in cell-index order.
    rows: tuple = ()
    #: Headline scalars (see :func:`_headline_measures` / ``docs/api.md``).
    measures: dict = field(default_factory=dict)
    #: Whether *every* row's answer is certified exact (None for simulate).
    exact: Optional[bool] = None
    #: Aggregated decision-cache counters across rows (None when untracked).
    #: When the executing :class:`~repro.api.session.Session` reports its
    #: object-cache counters, they appear under the ``session`` sub-key
    #: (hits / misses / evictions of the graph, algorithm, runner and
    #: kernel caches combined).
    cache: Optional[dict] = None
    #: Batch-kernel summary across rows (backends/rules used; None when no
    #: row went through the kernel).
    kernel: Optional[dict] = None
    #: Timing summary: total wall time across cells.
    timing: dict = field(default_factory=dict)
    #: Per-query instrumentation profile (span tree summary + metrics
    #: snapshot, see :func:`repro.obs.build_profile`); ``None`` unless the
    #: query ran with observability on (``REPRO_OBS=on`` or
    #: ``repro query --profile``).  Volatile, like ``wall_time_s``.
    profile: Optional[dict] = None

    @classmethod
    def from_rows(
        cls,
        mode: str,
        query: Mapping,
        rows: Sequence[Mapping],
        session_cache: Optional[Mapping] = None,
        profile: Optional[Mapping] = None,
    ) -> "Result":
        """Assemble a Result from engine rows (aggregates computed here).

        ``session_cache`` optionally attaches the executing session's
        object-cache counters (hit/miss/eviction) under ``cache["session"]``;
        ``profile`` the instrumentation profile of the producing query.
        """
        rows = tuple(dict(row) for row in rows)
        if mode == "simulate":
            exact = None
        else:
            exact = bool(rows) and all(bool(row.get("exact")) for row in rows)
        cache = _aggregate_cache(rows)
        if session_cache is not None:
            cache = dict(cache or {})
            cache["session"] = dict(session_cache)
        return cls(
            mode=mode,
            query=dict(query),
            rows=rows,
            measures=_headline_measures(mode, rows),
            exact=exact,
            cache=cache,
            kernel=_aggregate_kernel(rows),
            timing={"wall_time_s": sum(row.get("wall_time_s", 0.0) for row in rows)},
            profile=dict(profile) if profile is not None else None,
        )

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------
    def table(self) -> Table:
        """Render the rows as the mode's standard ASCII table."""
        columns = _TABLE_COLUMNS[self.mode]
        measure = self.query.get("measure", "")
        titles = {
            "simulate": "simulate: both measures per instance",
            "worst-case": f"worst-case {measure} over identifier assignments",
            "sweep": f"sweep: worst-case {measure} over identifier assignments",
            "distribution": "dist: measure distributions over identifier assignments",
            "scale": "scale: sharded sampling on streamed topologies",
        }
        table = Table(columns=columns, title=titles[self.mode])
        for row in self.rows:
            table.add_row(**{name: self._cell(row, name) for name in columns})
        return table

    def profile_table(self) -> Table:
        """Render the profile's span tree as an ASCII table (hottest first).

        One row per aggregated span-tree node, indented by depth, with call
        count, total and self wall seconds and the share of the profile's
        total.  Raises :class:`~repro.errors.AnalysisError` when the result
        carries no profile (run with ``REPRO_OBS=on``, ``repro query
        --profile``, or enable :mod:`repro.obs` before querying).
        """
        if not self.profile:
            raise AnalysisError(
                "this result carries no profile; run the query with "
                "REPRO_OBS=on (or `repro query --profile`) to record one"
            )
        total = self.profile.get("total_s") or 0.0
        table = Table(
            columns=("span", "count", "total_s", "self_s", "share"),
            title="per-query span profile",
        )

        def walk(nodes, depth: int) -> None:
            for node in nodes:
                table.add_row(
                    span="  " * depth + node["name"],
                    count=node["count"],
                    total_s=f"{node['total_s']:.6f}",
                    self_s=f"{node['self_s']:.6f}",
                    share=f"{(node['total_s'] / total):.1%}" if total else "-",
                )
                walk(node.get("children", ()), depth + 1)

        walk(self.profile.get("spans", ()), 0)
        return table

    @staticmethod
    def _cell(row: Mapping, column: str):
        """One table cell (flattening the nested distribution statistics)."""
        if column == "cache_hit_rate":
            return (row.get("cache") or {}).get("hit_rate", 0.0)
        if column == "weight":
            return row["total_weight"]
        if column.startswith("avg_") or column.startswith("max_"):
            marginal = row["average"] if column.startswith("avg_") else row["max"]
            statistic = column.split("_", 1)[1]
            if statistic == "se":
                uncertainty = row.get("uncertainty") or {}
                value = (uncertainty.get("average") or {}).get("std_error")
                return "-" if value is None else value
            return marginal[statistic]
        return row.get(column)

    # ------------------------------------------------------------------
    # the versioned JSON document
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """The versioned plain-dict form of the whole result."""
        return {
            "kind": RESULT_KIND,
            "version": RESULT_VERSION,
            "mode": self.mode,
            "query": self.query,
            "rows": list(self.rows),
            "measures": self.measures,
            "exact": self.exact,
            "cache": self.cache,
            "kernel": self.kernel,
            "timing": self.timing,
            "profile": self.profile,
        }

    def to_json(self) -> str:
        """Serialise as a ``repro-result`` JSON document."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path: str) -> None:
        """Write :meth:`to_json` to ``path`` atomically (temp + ``os.replace``).

        An interrupted ``repro query --output`` therefore never leaves a
        truncated document behind — the destination holds either the old
        content or the complete new one.
        """
        from repro.utils.io import atomic_write_text

        atomic_write_text(path, self.to_json())

    @classmethod
    def from_dict(cls, document: Mapping) -> "Result":
        """Parse a ``repro-result`` document; reconstructs the Result exactly."""
        if not isinstance(document, Mapping):
            raise AnalysisError(
                f"a result document must be an object, got {type(document).__name__}"
            )
        kind = document.get("kind")
        if kind != RESULT_KIND:
            raise AnalysisError(
                f"not a result document: kind={kind!r} (expected {RESULT_KIND})"
            )
        if document.get("version") != RESULT_VERSION:
            raise AnalysisError(
                f"unsupported {RESULT_KIND} version {document.get('version')!r} "
                f"(this library reads version {RESULT_VERSION})"
            )
        return cls(
            mode=document["mode"],
            query=dict(document["query"]),
            rows=tuple(document["rows"]),
            measures=dict(document["measures"]),
            exact=document.get("exact"),
            cache=document.get("cache"),
            kernel=document.get("kernel"),
            timing=dict(document.get("timing") or {}),
            profile=document.get("profile"),
        )

    @classmethod
    def from_json(cls, text: str) -> "Result":
        """Parse a document previously produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "Result":
        """Read a result (or adoptable legacy) JSON document from ``path``."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))
