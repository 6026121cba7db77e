"""Legacy-vs-engine benchmark with a JSON artifact.

Measures the two workloads named by the engine's acceptance criteria —

* an **exhaustive adversary** on the 7-cycle (all 5040 permutations), and
* a **sampling-adversary sweep** on a 64-cycle (random-search budget of 48),

each as: legacy = the from-scratch reference runner evaluated once per
assignment (exactly the pre-engine execution path), engine = one engine
session (frontier plans + decision cache) over the same assignments — on
the ring a :class:`~repro.engine.frontier.FrontierRunner` run per
permutation (the search tests' ``exhaustive_oracle``), on the sweep the
sampling adversary's session.  (The exhaustive
adversary itself now scores its permutations in kernel cohorts; the ring
entry checks its value untimed.)  After one untimed
warm-up each, the two paths are timed in ``REPEATS`` interleaved pairs and
must agree on the objective value; the median per-pair speedup must be at
least ``MIN_SPEEDUP``.  Results — timings, speedups and
cache hit rates — are written to ``BENCH_engine.json`` next to the repo
root so CI can archive them.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

from bench_smoke import SMOKE, artifact_path, paired_ratio, pick

from repro.algorithms.largest_id import LargestIdAlgorithm
from repro.core.adversary import (
    ExhaustiveAdversary,
    RandomSearchAdversary,
    trace_objective,
)
from repro.core.runner import reference_run_ball_algorithm
from repro.model.identifiers import IdentifierAssignment, random_assignment
from repro.topology.cycle import cycle_graph
from repro.utils.rng import make_rng

# The engine-scored n! loop is the search tests' oracle; time that one copy.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests" / "search"))
from exhaustive_oracle import exhaustive_oracle  # noqa: E402

ARTIFACT_PATH = artifact_path("BENCH_engine.json")
MIN_SPEEDUP = 3.0
REPEATS = pick(3, 1)

_RESULTS: dict[str, dict] = {}


def _record(
    name: str, speedup: float, legacy_s: float, engine_s: float, value: float, cache_stats
):
    entry = {
        "legacy_s": legacy_s,
        "engine_s": engine_s,
        "speedup": speedup,
        "value": value,
        "cache": cache_stats.as_dict() if cache_stats else None,
    }
    _RESULTS[name] = entry
    payload = {
        "kind": "repro-bench-engine",
        "min_speedup": MIN_SPEEDUP,
        "smoke": SMOKE,
        "results": _RESULTS,
    }
    ARTIFACT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return entry


def test_bench_exhaustive_adversary_ring7():
    graph = cycle_graph(7)
    algorithm = LargestIdAlgorithm()

    def legacy():
        best = -1.0
        for permutation in itertools.permutations(range(7)):
            trace = reference_run_ball_algorithm(
                graph, IdentifierAssignment(permutation), algorithm
            )
            best = max(best, trace_objective(trace, "average"))
        return best

    def engine():
        return exhaustive_oracle(graph, algorithm, objectives=("average",))

    speedup, legacy_s, engine_s, legacy_value, (results, cache_stats) = paired_ratio(
        legacy, engine, REPEATS
    )
    value = results["average"][0]
    assert value == legacy_value
    exhaustive = ExhaustiveAdversary().maximise(graph, algorithm, objective="average")
    assert exhaustive.value == legacy_value
    entry = _record("exhaustive_ring_n7", speedup, legacy_s, engine_s, value, cache_stats)
    assert cache_stats.hit_rate > 0.9
    assert entry["speedup"] >= MIN_SPEEDUP, (
        f"engine only {entry['speedup']:.2f}x faster than the legacy runner "
        f"on the exhaustive ring (wanted >= {MIN_SPEEDUP}x): {entry}"
    )


def test_bench_sampling_adversary_sweep_n64():
    n, samples, seed = 64, 48, 9
    graph = cycle_graph(n)
    algorithm = LargestIdAlgorithm()

    def legacy():
        # Exactly the assignments RandomSearchAdversary(seed) will draw.
        rng = make_rng(seed)
        best = -1.0
        for _ in range(samples):
            ids = random_assignment(n, seed=rng.getrandbits(64))
            trace = reference_run_ball_algorithm(graph, ids, algorithm)
            best = max(best, trace_objective(trace, "average"))
        return best

    def engine():
        return RandomSearchAdversary(samples=samples, seed=seed).maximise(
            graph, algorithm, objective="average"
        )

    speedup, legacy_s, engine_s, legacy_value, result = paired_ratio(
        legacy, engine, REPEATS
    )
    assert result.value == legacy_value
    entry = _record(
        f"sampling_sweep_n{n}", speedup, legacy_s, engine_s, result.value, result.cache_stats
    )
    assert result.cache_stats.hit_rate > 0.5
    assert entry["speedup"] >= MIN_SPEEDUP, (
        f"engine only {entry['speedup']:.2f}x faster than the legacy runner "
        f"on the sampling sweep (wanted >= {MIN_SPEEDUP}x): {entry}"
    )
