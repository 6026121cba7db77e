"""Warm-session-vs-fresh-setup benchmark with a JSON artifact.

Measures the point of the :class:`repro.api.session.Session` redesign: a
session that owns the shared infrastructure (cached graphs with their
frontier plans, per-``(graph, algorithm)`` engine runners with warm decision
caches) must beat fresh per-call setup by at least ``MIN_SPEEDUP`` on a
repeated-query workload.

Two workloads are timed:

* **repeated simulate queries** — the same ring, many identifier seeds;
  fresh setup rebuilds the graph, the frontier plans and a cold decision
  cache per query, the warm session reuses all three (asserted speedup:
  the median ratio over ``PAIRS`` back-to-back fresh/warm pairs, so a
  burst of load from a neighbouring process skews one pair, not a side);
* **repeated worst-case queries** — the same exact branch-and-bound search,
  best-of-``REPEATS``; the warm session reuses the graph's automorphism
  group and plans, but the enumeration dominates, so the timings are
  recorded without a speedup assertion.

Both paths must agree on every measure value.  Results are written to
``BENCH_api.json`` next to the repo root so CI can archive them.
"""

from __future__ import annotations

import json
import time

from bench_smoke import SMOKE, artifact_path, paired_ratio, pick

from repro.api.query import Query
from repro.api.session import Session

ARTIFACT_PATH = artifact_path("BENCH_api.json")
MIN_SPEEDUP = 1.5
REPEATS = pick(3, 2)
PAIRS = 15

SIMULATE_N = pick(64, 24)
SIMULATE_QUERIES = pick(12, 5)
SEARCH_N = pick(8, 6)
SEARCH_QUERIES = pick(4, 3)

_RESULTS: dict[str, dict] = {}


def _best_of(fn, repeats: int = REPEATS) -> tuple[float, object]:
    best = float("inf")
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - started)
    return best, value


def _record(name: str, speedup: float, fresh_s: float, warm_s: float, extra: dict) -> dict:
    entry = {
        "fresh_s": fresh_s,
        "warm_s": warm_s,
        "speedup": speedup,
        **extra,
    }
    _RESULTS[name] = entry
    payload = {
        "kind": "repro-bench-api",
        "min_speedup": MIN_SPEEDUP,
        "smoke": SMOKE,
        "results": _RESULTS,
    }
    ARTIFACT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return entry


def _simulate_queries() -> list[Query]:
    return [
        Query(
            mode="simulate",
            topologies="cycle",
            sizes=SIMULATE_N,
            algorithms="largest-id",
            ids="random",
            seed=seed,
        )
        for seed in range(SIMULATE_QUERIES)
    ]


def test_bench_warm_session_repeated_simulate():
    queries = _simulate_queries()

    def fresh():
        # Fresh per-call setup: a new session per query rebuilds the graph,
        # its frontier plans and a cold decision cache every time.
        return [Session().run(query).measures["average"] for query in queries]

    def warm():
        session = Session()
        return [session.run(query).measures["average"] for query in queries]

    speedup, fresh_s, warm_s, fresh_values, warm_values = paired_ratio(fresh, warm, PAIRS)
    assert warm_values == fresh_values, "warm and fresh sessions must agree"
    entry = _record(
        f"repeated_simulate_n{SIMULATE_N}x{SIMULATE_QUERIES}",
        speedup,
        fresh_s,
        warm_s,
        {"n": SIMULATE_N, "queries": SIMULATE_QUERIES, "pairs": PAIRS, "values": fresh_values},
    )
    assert entry["speedup"] >= MIN_SPEEDUP, (
        f"warm session only {entry['speedup']:.2f}x faster than fresh per-call "
        f"setup on the repeated simulate workload (wanted >= {MIN_SPEEDUP}x): {entry}"
    )


def test_bench_warm_session_repeated_worst_case():
    query = Query(
        mode="worst-case",
        topologies="cycle",
        sizes=SEARCH_N,
        algorithms="largest-id",
        adversaries="branch-and-bound",
        measure="average",
    )

    def fresh():
        return [Session().run(query).rows[0]["value"] for _ in range(SEARCH_QUERIES)]

    def warm():
        session = Session()
        return [session.run(query).rows[0]["value"] for _ in range(SEARCH_QUERIES)]

    fresh_s, fresh_values = _best_of(fresh)
    warm_s, warm_values = _best_of(warm)
    assert warm_values == fresh_values
    # Recorded without a speedup assertion: the branch-and-bound enumeration
    # dominates this workload, so warm-vs-fresh hovers around 1.0x and any
    # numeric floor would only measure CI scheduling noise.  The asserted
    # session win lives in test_bench_warm_session_repeated_simulate.
    _record(
        f"repeated_worst_case_n{SEARCH_N}x{SEARCH_QUERIES}",
        fresh_s / warm_s,
        fresh_s,
        warm_s,
        {"n": SEARCH_N, "queries": SEARCH_QUERIES, "value": fresh_values[0]},
    )
