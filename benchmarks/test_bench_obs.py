"""Instrumentation overhead on the sampling workload, with a JSON artifact.

The observability subsystem's acceptance workload: the distribution-sampling
loop on an 8-cycle under the largest-ID algorithm through a warm compiled
kernel instance — the same stream ``BENCH_kernel.json`` measures — timed
twice:

* **off** — instrumentation disabled (the tier-1 default): every ``span()``
  call on the path returns the no-op singleton;
* **on** — instrumentation enabled: real spans are recorded under a root,
  metrics are published at the bulk flush points.

The sampled estimates are asserted bit-identical between the two runs
(observation must not perturb), then the enabled run must not cost more
than ~5%: the speedup, the median over interleaved pairs of the off/on
time ratio, must reach ``MIN_SPEEDUP``.  An unasserted ``noop_span_call``
entry records the per-call cost of the disabled path for the trend report.
Results land in ``BENCH_obs.json`` (re-checked by
``scripts/check_bench_floors.py``).
"""

from __future__ import annotations

import json
import time

from bench_smoke import SMOKE, artifact_path, paired_ratio, pick

from repro.algorithms.largest_id import LargestIdAlgorithm
from repro.dist.sampling import sample_round_distribution
from repro.kernel import compile_instance
from repro.obs import metrics, spans
from repro.topology.cycle import cycle_graph

ARTIFACT_PATH = artifact_path("BENCH_obs.json")

#: Floor on ``off_s / on_s``: 0.95 allows ~5% instrumentation overhead.
MIN_SPEEDUP = 0.95
RING_N = 8
SAMPLES = pick(4096, 512)
REPEATS = pick(7, 3)
NOOP_CALLS = pick(200_000, 20_000)

_RESULTS: dict[str, dict] = {}


def _best_of(fn, repeats: int = REPEATS) -> tuple[float, object]:
    best = float("inf")
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - started)
    return best, value


def _write_artifact() -> None:
    payload = {
        "kind": "repro-bench-obs",
        "smoke": SMOKE,
        "workload": {"topology": "cycle", "n": RING_N, "samples": SAMPLES},
        "results": _RESULTS,
    }
    ARTIFACT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def test_bench_obs_overhead_on_sampling():
    graph = cycle_graph(RING_N)
    algorithm = LargestIdAlgorithm()
    instance = compile_instance(graph, algorithm)

    def run_sampling():
        return sample_round_distribution(
            graph, algorithm, samples=SAMPLES, seed=20260729, kernel=instance
        )

    def run_instrumented():
        # Fresh tracer per repetition: steady-state recording, not an
        # ever-growing span forest.
        spans.reset_spans()
        metrics.reset_metrics()
        return run_sampling()

    def run_off():
        spans.disable()
        return run_sampling()

    def run_on():
        spans.enable()
        return run_instrumented()

    def measure(repeats: int) -> tuple[float, float, float, object, object]:
        saved_state = spans._state
        try:
            # Interleaved off/on pairs, so clock-speed drift hits both
            # sides equally; the gate reads the median per-pair ratio, so
            # one pair skewed by a neighbour's burst does not decide it.
            return paired_ratio(run_off, run_on, repeats)
        finally:
            spans._state = saved_state
            spans.reset_spans()
            metrics.reset_metrics()

    # A shared-runner scheduling spike can still skew most of one short
    # window by more than the few percent under test, so a measurement
    # that misses the floor earns one re-measure at doubled repetitions
    # before it counts as a regression.
    for repeats in (REPEATS, REPEATS * 2):
        speedup, off_s, on_s, off_result, on_result = measure(repeats)
        if speedup >= MIN_SPEEDUP:
            break

    # Observation must not perturb: identical estimates either way.
    assert on_result == off_result

    _RESULTS["obs_overhead_sampling"] = {
        "off_s": off_s,
        "on_s": on_s,
        "speedup": speedup,
        "min_speedup": MIN_SPEEDUP,
        "samples": SAMPLES,
    }
    _write_artifact()
    print(
        f"\nobs sampling x{SAMPLES}: off {off_s:.3f}s, on {on_s:.3f}s "
        f"(speedup {speedup:.3f}x, overhead {max(0.0, on_s / off_s - 1) * 100:.1f}%)"
    )
    assert speedup >= MIN_SPEEDUP


def test_bench_noop_span_call_cost():
    """Record the disabled path's per-call cost (informational, unasserted)."""
    saved_state = spans._state
    try:
        spans.disable()

        def burn():
            noop = spans.NOOP_SPAN
            for _ in range(NOOP_CALLS):
                item = spans.span("kernel.simulate_batch")
                assert item is noop
            return noop

        elapsed, _ = _best_of(burn)
    finally:
        spans._state = saved_state
    _RESULTS["noop_span_call"] = {
        "calls": NOOP_CALLS,
        "total_s": elapsed,
        "ns_per_call": elapsed / NOOP_CALLS * 1e9,
    }
    _write_artifact()
    print(
        f"\nnoop span: {NOOP_CALLS} calls in {elapsed:.4f}s "
        f"({elapsed / NOOP_CALLS * 1e9:.0f} ns/call)"
    )
