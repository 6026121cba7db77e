"""Smoke-mode switch for the benchmark suite.

``make bench-smoke`` (and the CI job of the same name) sets
``REPRO_BENCH_SMOKE=1`` and runs every ``benchmarks/test_bench_*.py``
through the same code paths with reduced sizes and budgets, so regressions
in the ``BENCH_*.json`` artifacts and the speedup assertions surface on
every PR instead of only on full local runs.

Benchmark modules call :func:`pick` for anything that should shrink in
smoke mode; artifacts record the mode so a smoke JSON is never mistaken
for a full one.

Artifact writes are gated separately: the committed ``BENCH_*.json`` files
are only rewritten under ``REPRO_BENCH_WRITE=1`` (set by ``make bench`` and
``make bench-smoke``).  An ordinary ``pytest`` run — tier-1 collects the
benchmarks too — times and asserts exactly the same workloads but writes
its JSON to one scratch directory per process, removed when the
interpreter exits, so plain test runs leave neither the tree nor the temp
directory dirty.

Ratio gates time their two sides with :func:`paired_ratio`, so a burst of
load from a neighbouring process skews one pair, not a whole side.
"""

from __future__ import annotations

import atexit
import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Optional

#: True when the suite runs under ``make bench-smoke`` / the CI smoke job.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

#: True when artifact writes should land on the committed BENCH_*.json
#: files (``make bench`` / ``make bench-smoke`` set REPRO_BENCH_WRITE=1).
WRITE_ARTIFACTS = os.environ.get("REPRO_BENCH_WRITE", "") == "1"

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: This process's scratch directory for artifacts, made on first use.
_scratch: Optional[Path] = None


def pick(full, smoke):
    """Return ``full`` normally, ``smoke`` under ``REPRO_BENCH_SMOKE=1``."""
    return smoke if SMOKE else full


def paired_ratio(baseline, candidate, repeats: int):
    """Median per-pair ``baseline / candidate`` time ratio of two callables.

    One untimed warm-up call of each side comes first; then each of the
    ``repeats`` pairs times the baseline and the candidate back to back.
    Returns ``(ratio, baseline_s, candidate_s, baseline_value,
    candidate_value)``: the median per-pair ratio, each side's median time,
    and each side's last return value.
    """
    baseline_value, candidate_value = baseline(), candidate()
    baseline_times: list[float] = []
    candidate_times: list[float] = []
    for _ in range(repeats):
        started = time.perf_counter()
        baseline_value = baseline()
        baseline_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        candidate_value = candidate()
        candidate_times.append(time.perf_counter() - started)
    ratio = statistics.median(b / c for b, c in zip(baseline_times, candidate_times))
    return (
        ratio,
        statistics.median(baseline_times),
        statistics.median(candidate_times),
        baseline_value,
        candidate_value,
    )


def artifact_path(filename: str) -> Path:
    """Where a benchmark should write its ``BENCH_*.json`` artifact.

    The committed repo-root path under ``REPRO_BENCH_WRITE=1``, otherwise a
    file in this process's scratch directory under the system temp
    directory, so ordinary test runs leave the committed artifacts
    untouched.  The scratch directory is removed at interpreter exit.
    """
    global _scratch
    if WRITE_ARTIFACTS:
        return _REPO_ROOT / filename
    if _scratch is None:
        _scratch = Path(tempfile.mkdtemp(prefix="repro-bench-scratch-"))
        atexit.register(shutil.rmtree, _scratch, ignore_errors=True)
    return _scratch / filename
