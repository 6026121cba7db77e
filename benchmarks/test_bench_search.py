"""Search-vs-legacy benchmark with a JSON artifact.

Three claims of the search subsystem are measured and asserted —

* **pruned exhaustive >= 5x legacy exhaustive on the 8-cycle**: the legacy
  adversary scores all ``8! = 40320`` permutations in kernel cohorts (about
  0.4 s); the canonical enumeration evaluates one assignment per orbit of
  the cycle's automorphism group (a few ms, about 90x less) and must land
  at least ``MIN_SPEEDUP`` times faster while reporting the identical
  optimum;
* **exact search beyond the legacy n <= 9 limit**: branch and bound proves
  the worst case on the 10-cycle (a space of ``10! = 3628800``) and the
  result must equal the paper's recurrence bound ``a(n) = floor(n/2) +
  a(n-1)`` exactly;
* **full-symmetry collapse**: on the complete graph ``K_12`` (``12!``
  assignments) the canonical enumeration is a single evaluation.

Timings, speedups and certificates are written to ``BENCH_search.json``
next to the repo root so CI can archive them.  Under
``REPRO_BENCH_SMOKE=1`` the same assertions run one size down (7-cycle,
9-cycle, ``K_8``) with a relaxed speedup floor.
"""

from __future__ import annotations

import json
import math
import time

from bench_smoke import SMOKE, artifact_path, pick

from repro.algorithms.largest_id import LargestIdAlgorithm
from repro.core.adversary import ExhaustiveAdversary
from repro.search.adversaries import PrunedExhaustiveAdversary
from repro.theory.bounds import largest_id_sum_upper_bound
from repro.topology.complete import complete_graph
from repro.topology.cycle import cycle_graph

ARTIFACT_PATH = artifact_path("BENCH_search.json")
MIN_SPEEDUP = pick(5.0, 2.0)
PRUNED_N = pick(8, 7)
EXACT_N = pick(10, 9)
COLLAPSE_N = pick(12, 8)

_RESULTS: dict[str, dict] = {}


def _timed(fn):
    started = time.perf_counter()
    value = fn()
    return time.perf_counter() - started, value


def _record(name: str, entry: dict) -> dict:
    _RESULTS[name] = entry
    payload = {
        "kind": "repro-bench-search",
        "min_speedup": MIN_SPEEDUP,
        "smoke": SMOKE,
        "results": _RESULTS,
    }
    ARTIFACT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return entry


def test_bench_pruned_vs_legacy_exhaustive_ring8():
    n = PRUNED_N
    graph = cycle_graph(n)
    algorithm = LargestIdAlgorithm()

    legacy_s, legacy = _timed(
        lambda: ExhaustiveAdversary().maximise(graph, algorithm, "average")
    )
    pruned_s, pruned = _timed(
        lambda: PrunedExhaustiveAdversary().maximise(graph, algorithm, "average")
    )
    assert pruned.exact and pruned.value == legacy.value
    assert legacy.evaluations == math.factorial(n)
    certificate = pruned.certificate
    # One representative per orbit of the dihedral group (order 2n).
    assert certificate.canonical_leaves == math.factorial(n) // (2 * n)
    entry = _record(
        f"pruned_vs_legacy_ring{n}",
        {
            "legacy_s": legacy_s,
            "pruned_s": pruned_s,
            "speedup": legacy_s / pruned_s,
            "value": pruned.value,
            "legacy_evaluations": legacy.evaluations,
            "canonical_leaves": certificate.canonical_leaves,
            "certificate": certificate.as_dict(),
        },
    )
    assert entry["speedup"] >= MIN_SPEEDUP, (
        f"pruned exhaustive only {entry['speedup']:.2f}x faster than the legacy "
        f"exhaustive on the {n}-cycle (wanted >= {MIN_SPEEDUP}x): {entry}"
    )


def test_bench_exact_search_beyond_legacy_limit_ring10():
    # n = 10 > 9: outside the legacy adversary's feasibility guard (the
    # smoke mode drops to 9).  The paper's segment recurrence gives the
    # exact worst-case radius sum on the cycle, so the search result is
    # cross-checked against theory.
    n = EXACT_N
    graph = cycle_graph(n)
    algorithm = LargestIdAlgorithm()
    elapsed_s, result = _timed(
        lambda: PrunedExhaustiveAdversary().maximise(graph, algorithm, "sum")
    )
    assert result.exact
    assert result.value == float(largest_id_sum_upper_bound(n))
    certificate = result.certificate
    assert certificate.space_size == math.factorial(n)
    _record(
        f"exact_ring{n}",
        {
            "elapsed_s": elapsed_s,
            "value": result.value,
            "theory_value": largest_id_sum_upper_bound(n),
            "space_size": certificate.space_size,
            "nodes_expanded": certificate.nodes_expanded,
            "certificate": certificate.as_dict(),
        },
    )


def test_bench_full_symmetry_collapse_k12():
    n = COLLAPSE_N
    graph = complete_graph(n)
    algorithm = LargestIdAlgorithm()
    elapsed_s, result = _timed(
        lambda: PrunedExhaustiveAdversary().maximise(graph, algorithm, "average")
    )
    assert result.exact and result.value == 1.0
    assert result.certificate.canonical_leaves == 1
    assert result.certificate.group_order == math.factorial(n)
    _record(
        f"full_symmetry_k{n}",
        {
            "elapsed_s": elapsed_s,
            "value": result.value,
            "space_size": math.factorial(n),
            "canonical_leaves": result.certificate.canonical_leaves,
        },
    )
