#!/usr/bin/env python
"""Benchmark-regression guard: every BENCH_*.json speedup meets its floor.

The benchmark suite writes one JSON artifact per subsystem
(``BENCH_engine.json``, ``BENCH_search.json``, ...) recording measured
speedups next to the floor each benchmark asserts (``min_speedup``).  The
assertions inside the benchmarks only fire when the benchmarks *run*; this
script re-checks the committed (or freshly regenerated) artifacts, so a
regression that slipped into an artifact — or an artifact written by a run
whose assertions were skipped — fails CI's bench-smoke job loudly.

Gating rules, per artifact:

* every gated *prefix* in :data:`GATED_RESULTS` for the artifact's ``kind``
  must match at least one result entry (result keys embed workload sizes —
  ``exact_vs_brute_force_ring8`` full, ``..._ring7`` smoke — so gating is
  by prefix) and every matching entry must carry a ``speedup``;
* the floor is the entry's own ``min_speedup`` when it has one, else the
  artifact's top-level ``min_speedup``;
* prefixes marked optional (absent on reduced installs, e.g. the kernel's
  numpy leg on a numpy-free machine) are checked only when present.

Exit status 0 when every floor holds, 1 otherwise; ``--quiet`` suppresses
the per-entry report.  Run directly or via ``make bench-floors``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: kind -> ((result key prefix, required), ...).  Result keys not matching
#: any gated prefix are recorded for information only (some benchmarks
#: deliberately log unasserted timings, e.g. the enumeration-dominated
#: ``repeated_worst_case`` workload of BENCH_api.json).
GATED_RESULTS = {
    "repro-bench-engine": (
        ("exhaustive_ring", True),
        ("sampling_sweep", True),
    ),
    "repro-bench-search": (("pruned_vs_legacy", True),),
    "repro-bench-dist": (("exact_vs_brute_force", True),),
    "repro-bench-api": (("repeated_simulate", True),),
    "repro-bench-kernel": (
        ("batched_sampling_python", True),
        # The numpy leg only exists where numpy is importable.
        ("batched_sampling_numpy", False),
        # Per-algorithm vectorised-rule-vs-fallback floors (one entry per
        # registered algorithm; again, the numpy legs only where available).
        ("vector_rule_python", True),
        ("vector_rule_numpy", False),
        # The largest-ID numpy sweep vs its stdlib scan (numpy only).
        ("max_scan_sweep_numpy", False),
    ),
    # speedup = median per-pair off/on ratio; the 0.95 floor tolerates ~5%
    # instrumentation overhead (noop_span_call is informational, ungated).
    "repro-bench-obs": (("obs_overhead", True),),
    # Million-node scale path: gated on throughput + memory, not speedup
    # (see GATED_METRICS).
    # The general-graph legs (max-scan sweep) are gated where present.
    "repro-bench-scale": (
        ("scale_cycle", True),
        ("scale_random-tree", False),
        ("scale_gnp", False),
    ),
    # The query service: a store hit must beat cold compute >= 5x, both
    # in-process and across a process restart (the on-disk tier).
    "repro-bench-serve": (
        ("store_hit_vs_cold", True),
        ("store_hit_across_restart", True),
    ),
    # The persistent worker runtime: repeated dispatch over the warm pool
    # vs a fresh multiprocessing.Pool per call, and handle-based task
    # messages vs inline-pickled CSR arrays (speedup = byte ratio).
    "repro-bench-parallel": (
        ("warm_pool_dispatch", True),
        ("shm_fanout", True),
    ),
}

#: kind -> ((measured key, bound key, direction), ...) for artifacts whose
#: gated entries carry absolute throughput/memory bounds instead of speedup
#: floors: ``">="`` means the measurement must meet a floor (nodes/sec),
#: ``"<="`` that it must stay under a ceiling (peak RSS).
GATED_METRICS = {
    "repro-bench-scale": (
        ("nodes_per_s", "min_nodes_per_s", ">="),
        ("peak_rss_bytes", "max_rss_bytes", "<="),
        # The scaling ratchet: nodes/s relative to the smallest probed size
        # (the baseline entry carries a trivial 0.0 floor).
        ("rel_nodes_per_s", "min_rel_nodes_per_s", ">="),
    ),
}


def check_artifact(path: Path, quiet: bool = False) -> list[str]:
    """Return the floor violations (empty = artifact healthy)."""
    document = json.loads(path.read_text(encoding="utf-8"))
    kind = document.get("kind")
    gated = GATED_RESULTS.get(kind)
    if gated is None:
        return [f"{path.name}: unknown artifact kind {kind!r} (update GATED_RESULTS)"]
    default_floor = document.get("min_speedup")
    results = document.get("results", {})
    problems = []
    for prefix, required in gated:
        matches = sorted(key for key in results if key.startswith(prefix))
        if not matches:
            if required:
                problems.append(
                    f"{path.name}: no result matches gated prefix {prefix!r}"
                )
            continue
        for key in matches:
            entry = results[key]
            metric_specs = GATED_METRICS.get(kind)
            if metric_specs:
                problems.extend(
                    _check_metrics(path, key, entry, metric_specs, quiet=quiet)
                )
                continue
            speedup = entry.get("speedup")
            floor = entry.get("min_speedup", default_floor)
            if speedup is None or floor is None:
                problems.append(
                    f"{path.name}: {key!r} lacks a speedup/min_speedup pair"
                )
                continue
            status = "ok" if speedup >= floor else "REGRESSION"
            if not quiet:
                print(
                    f"  {path.name:>22} {key:<28} {speedup:8.2f}x >= {floor:.2f}x  {status}"
                )
            if speedup < floor:
                problems.append(
                    f"{path.name}: {key} speedup {speedup:.2f}x is below its "
                    f"floor of {floor:.2f}x"
                )
    return problems


def _check_metrics(
    path: Path, key: str, entry: dict, specs, quiet: bool = False
) -> list[str]:
    """Violations of one metric-gated entry's absolute bounds."""
    problems = []
    for measured_key, bound_key, direction in specs:
        measured = entry.get(measured_key)
        bound = entry.get(bound_key)
        if measured is None or bound is None:
            problems.append(
                f"{path.name}: {key!r} lacks a {measured_key}/{bound_key} pair"
            )
            continue
        holds = measured >= bound if direction == ">=" else measured <= bound
        status = "ok" if holds else "REGRESSION"
        if not quiet:
            print(
                f"  {path.name:>22} {key:<28} {measured_key} "
                f"{measured:,.0f} {direction} {bound:,.0f}  {status}"
            )
        if not holds:
            problems.append(
                f"{path.name}: {key} {measured_key} {measured:,.0f} violates "
                f"its bound of {direction} {bound:,.0f}"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", default=str(REPO_ROOT), help="directory holding the BENCH_*.json files"
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the per-entry report")
    args = parser.parse_args(argv)
    root = Path(args.root)
    artifacts = sorted(root.glob("BENCH_*.json"))
    if not artifacts:
        print(f"no BENCH_*.json artifacts under {root}", file=sys.stderr)
        return 1
    problems = []
    for path in artifacts:
        problems.extend(check_artifact(path, quiet=args.quiet))
    if problems:
        for problem in problems:
            print(f"FLOOR VIOLATION: {problem}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"all {len(artifacts)} benchmark artifacts meet their floors")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
