"""The persistent parallel runtime: warm dispatch + zero-copy fan-out.

Two claims of the warm-pool runtime (:mod:`repro.engine.pool`) are gated
here, with the measurements recorded in ``BENCH_parallel.json``:

* **Warm dispatch** — repeated ``.map()`` calls over one long-lived
  :class:`~repro.engine.pool.WorkerPool` must beat the historical design
  (a fresh ``multiprocessing.Pool`` built and torn down per call) by
  :data:`MIN_DISPATCH_SPEEDUP`.  The workload is dispatch-bound on
  purpose: tiny tasks make pool start-up the dominant cost, which is
  exactly what the warm runtime amortises away.
* **Zero-copy fan-out** — on sharded scale tasks over a
  :data:`FANOUT_N`-node streamed cycle, task messages that reference the
  CSR arrays by :class:`~repro.engine.pool.ShmRef` handle must be at
  least :data:`MIN_FANOUT_RATIO` times smaller than the same messages
  with the arrays pickled inline (the pre-shm transport).  The entry also
  records the amortised ratio counting the one-time shared segments.

Both entries carry ``speedup``/``min_speedup`` pairs re-checked by
``scripts/check_bench_floors.py``.  A parity assertion pins that none of
this changes any measured value: the pooled sharded run must equal the
serial one bit for bit.
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
import time

from bench_smoke import SMOKE, artifact_path, pick

from repro.engine.campaign import make_ball_algorithm
from repro.engine.pool import WorkerPool
from repro.kernel import ShardedKernelExecutor
from repro.topology.stream import build_csr

ARTIFACT_PATH = artifact_path("BENCH_parallel.json")

WORKERS = 2

#: ``.map()`` calls per timing leg; each is one pool start-up in the cold
#: baseline and one warm dispatch in the gated leg.
DISPATCHES = pick(10, 4)

#: Tiny payloads per dispatch (dispatch-bound by construction).
TASKS_PER_DISPATCH = 8

#: Warm repeated dispatch must beat fresh-pool-per-call by this factor.
#: A single fork/exec/teardown cycle costs tens of milliseconds; a warm
#: dispatch is a pipe round-trip, so the full-mode margin is comfortable.
MIN_DISPATCH_SPEEDUP = pick(3.0, 2.0)

#: Node count of the streamed cycle behind the fan-out measurement.
FANOUT_N = pick(100_000, 4_096)

#: Sampled rows of the fan-out measurement, one task each.
FANOUT_SAMPLES = 4

#: Sampled rows of the parity run: two row blocks, so the pooled run fans
#: out over two tasks.
PARITY_SAMPLES = 5

#: Handle-based task messages must shrink payload bytes by this factor.
MIN_FANOUT_RATIO = 10.0

SEED = 20260808

_RESULTS: dict[str, dict] = {}


def _noop(value):
    return value


def _time_cold_dispatches() -> float:
    """The historical design: a fresh multiprocessing.Pool per ``.map()``."""
    payloads = list(range(TASKS_PER_DISPATCH))
    started = time.perf_counter()
    for _ in range(DISPATCHES):
        with multiprocessing.Pool(WORKERS) as pool:
            assert pool.map(_noop, payloads) == payloads
    return time.perf_counter() - started


def _time_warm_dispatches(pool: WorkerPool) -> float:
    """The warm runtime: the same dispatches over one long-lived pool."""
    payloads = list(range(TASKS_PER_DISPATCH))
    started = time.perf_counter()
    for _ in range(DISPATCHES):
        assert pool.map(_noop, payloads) == payloads
    return time.perf_counter() - started


def _shard_payloads(csr) -> list[tuple]:
    """Scale task payloads, one per sampled row, shaped as the executor's."""
    return [
        (csr.spec, "largest-id", SEED, row, row + 1) for row in range(FANOUT_SAMPLES)
    ]


def test_bench_warm_pool_dispatch():
    cold_s = _time_cold_dispatches()
    with WorkerPool(WORKERS) as pool:
        pool.map(_noop, list(range(TASKS_PER_DISPATCH)))  # spawn outside timing
        warm_s = _time_warm_dispatches(pool)
        stats = dict(pool.stats)
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    _RESULTS[f"warm_pool_dispatch_w{WORKERS}"] = {
        "dispatches": DISPATCHES,
        "tasks_per_dispatch": TASKS_PER_DISPATCH,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": speedup,
        "min_speedup": MIN_DISPATCH_SPEEDUP,
        "pool_stats": stats,
    }
    print(
        f"\nwarm dispatch: {DISPATCHES} x {TASKS_PER_DISPATCH} tasks, "
        f"cold {cold_s:.3f}s vs warm {warm_s:.3f}s -> {speedup:.1f}x"
    )
    assert speedup >= MIN_DISPATCH_SPEEDUP, (
        f"warm dispatch speedup {speedup:.2f}x below {MIN_DISPATCH_SPEEDUP}x"
    )


def test_bench_shm_fanout_bytes():
    csr = build_csr("cycle", FANOUT_N, seed=SEED)
    payloads = _shard_payloads(csr)
    inline_bytes = sum(
        len(pickle.dumps(payload + ((bytes(memoryview(csr.indptr).cast("B")),
                                     bytes(memoryview(csr.indices).cast("B"))),)))
        for payload in payloads
    )
    with WorkerPool(WORKERS) as pool:
        indptr_ref = pool.publish(csr.indptr)
        indices_ref = pool.publish(csr.indices)
        assert indptr_ref is not None and indices_ref is not None, (
            "shared memory unavailable: the fan-out claim cannot be measured"
        )
        segment_bytes = indptr_ref.size + indices_ref.size
        ref_bytes = sum(
            len(pickle.dumps(payload + ((indptr_ref, indices_ref),)))
            for payload in payloads
        )
        pool.release(indptr_ref)
        pool.release(indices_ref)
    ratio = inline_bytes / ref_bytes
    amortised = inline_bytes / (ref_bytes + segment_bytes)
    _RESULTS[f"shm_fanout_n{FANOUT_N}"] = {
        "n": FANOUT_N,
        "tasks": len(payloads),
        "inline_bytes": inline_bytes,
        "ref_bytes": ref_bytes,
        "segment_bytes": segment_bytes,
        "amortised_ratio": amortised,
        "speedup": ratio,
        "min_speedup": MIN_FANOUT_RATIO,
    }
    print(
        f"\nshm fan-out: n={FANOUT_N}, {len(payloads)} tasks, "
        f"{inline_bytes / 1024:.0f} KiB inline vs {ref_bytes / 1024:.1f} KiB "
        f"by handle ({segment_bytes / 1024:.0f} KiB shared once) -> {ratio:.0f}x"
    )
    assert ratio >= MIN_FANOUT_RATIO, (
        f"shm fan-out payload reduction {ratio:.1f}x below {MIN_FANOUT_RATIO}x"
    )


def test_bench_parallel_equals_serial_and_write_artifact():
    n = pick(2_048, 256)
    csr = build_csr("cycle", n, seed=SEED)

    def _measures(workers):
        executor = ShardedKernelExecutor(
            csr, make_ball_algorithm("largest-id", csr.n), workers=workers
        )
        return executor.sample_measures(PARITY_SAMPLES, seed=SEED)

    assert _measures(WORKERS) == _measures(1)
    payload = {
        "kind": "repro-bench-parallel",
        "smoke": SMOKE,
        "workload": {
            "workers": WORKERS,
            "dispatches": DISPATCHES,
            "fanout_n": FANOUT_N,
            "fanout_tasks": FANOUT_SAMPLES,
        },
        "results": _RESULTS,
    }
    ARTIFACT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
