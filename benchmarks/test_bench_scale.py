"""Million-node scale path: streamed CSR + sharded sampling, with RSS probes.

The scale acceptance workload: for each size in :data:`SIZES` a **fresh
subprocess** builds the CSR cycle (arrays unbuilt: the ring scan needs only
``n``), runs
:func:`repro.kernel.shard.run_scale_probe` (sharded sampling of both
measures under the largest-ID algorithm), and reports throughput plus its
own ``ru_maxrss`` peak.  The subprocess isolation is the point — the parent
pytest process has touched numpy, graphs and caches, so only a child's RSS
honestly bounds what the scale path itself allocates.  The same probes run
on the ``random-tree`` and ``gnp`` families at 10^5 nodes
(:data:`GENERAL_SIZES`), where the ``max-scan`` rule answers instead of the
ring scan.

Each entry lands in ``BENCH_scale.json`` as ``scale_<topology>_n<size>``
with a ``nodes_per_s`` floor, a ``peak_rss_bytes`` ceiling and a scaling
ratchet, asserted in-run and re-checked by ``scripts/check_bench_floors.py``.
The path has a stdlib backend, so this benchmark runs (and gates) on the
numpy-free engine-smoke job too.

Smoke mode (``REPRO_BENCH_SMOKE=1``) keeps every size at or below 10^3
nodes — ``tests/test_bench_floors.py`` pins that bound — so the CI smoke
job exercises the identical code path in well under a second.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from bench_smoke import SMOKE, artifact_path, pick

from repro.kernel.backend import numpy_available

ARTIFACT_PATH = artifact_path("BENCH_scale.json")

#: Full-mode sizes: the tentpole claim is the 10^6-node cycle end to end.
SIZES_FULL = (10_000, 100_000, 1_000_000)
#: Smoke-mode sizes: same code path, must stay at or below 10^3 nodes.
SIZES_SMOKE = (256, 1_000)
SIZES = pick(SIZES_FULL, SIZES_SMOKE)

#: Sampled identifier assignments per size.  One full row is O(n) centres,
#: so the 10^6 probe keeps this small; the measures still fold per shard.
SAMPLES = pick(2, 2)

#: Throughput floor in sampled centres per second.  The 1-CPU CI runner
#: sustains ~100k nodes/s on this path; the floor is ~20x slack so only a
#: true algorithmic regression (e.g. losing the early-stop BFS) trips it.
MIN_NODES_PER_S = pick(5_000.0, 2_000.0)

#: Peak-RSS ceiling for the probe subprocess.  The acceptance bound: the
#: 10^6-node cycle must sample end to end in well under 2 GiB.
MAX_RSS_BYTES = 2 * 1024**3

#: Scaling ratchet: every size's nodes/s relative to the smallest probed
#: size.  The ring scan settles a row by pointer jumping in about 40
#: whole-array rounds over the still-pending positions, and the cycle's CSR
#: is never built, so the per-node cost must stay essentially flat as n
#: grows — on the numpy backend the measured relative rate at 10^6 is ~20x
#: (the 10^4 probe pays fixed startup, the first numpy import included), on
#: the pure-python fallback ~0.64.  The floors below only trip when the
#: rule's per-centre cost stops being size-independent again.
MIN_REL_NODES_PER_S = pick(0.8 if numpy_available() else 0.45, 0.1)

#: Size of the general-graph legs (``random-tree``, ``gnp``), where the
#: ``max-scan`` rule answers with its whole-row sweep.
GENERAL_SIZES_FULL = (100_000,)
GENERAL_SIZES_SMOKE = (1_000,)
GENERAL_SIZES = pick(GENERAL_SIZES_FULL, GENERAL_SIZES_SMOKE)
GENERAL_TOPOLOGIES = ("random-tree", "gnp")

#: Throughput floor of the general-graph legs.  On a 2-vCPU VM the numpy
#: sweep measures 0.6-0.75M nodes/s at 10^5 (the first numpy import
#: included), the per-centre BFS it replaced ~55k; the floor sits between
#: the two with 3x headroom, so losing the sweep trips it.  The stdlib
#: backend keeps the per-centre scan (~50k nodes/s).
MIN_GENERAL_NODES_PER_S = pick(
    200_000.0 if numpy_available() else 5_000.0, 2_000.0
)

SEED = 20260808

_RESULTS: dict[str, dict] = {}

_PROBE_SCRIPT = """\
import json, sys
from repro.kernel.shard import run_scale_probe

spec = json.loads(sys.argv[1])
print(json.dumps(run_scale_probe(**spec)))
"""


def _probe_in_subprocess(n: int, topology: str = "cycle") -> dict:
    """Run one scale probe in a fresh interpreter and parse its JSON report."""
    import repro

    src_root = str(Path(repro.__file__).resolve().parent.parent)
    spec = {
        "topology": topology,
        "n": n,
        "algorithm": "largest-id",
        "samples": SAMPLES,
        "seed": SEED,
        "workers": 1,
    }
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE_SCRIPT, json.dumps(spec)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src_root},
        check=False,
    )
    assert completed.returncode == 0, (
        f"scale probe n={n} failed:\n{completed.stderr}"
    )
    return json.loads(completed.stdout)


def _write_artifact() -> None:
    payload = {
        "kind": "repro-bench-scale",
        "smoke": SMOKE,
        "workload": {
            "topology": "cycle",
            "algorithm": "largest-id",
            "samples": SAMPLES,
            "sizes": list(SIZES),
            "general_topologies": list(GENERAL_TOPOLOGIES),
            "general_sizes": list(GENERAL_SIZES),
        },
        "results": _RESULTS,
    }
    ARTIFACT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _probe_sizes(
    topology: str, sizes, min_nodes_per_s: float, min_rel_nodes_per_s: float = 0.0
) -> list[dict]:
    """Probe each size in a fresh subprocess; gate and record every entry."""
    entries = []
    for n in sizes:
        probe = _probe_in_subprocess(n, topology)
        assert probe["n"] == n and probe["samples"] == SAMPLES
        entry = {
            "n": n,
            "samples": SAMPLES,
            "build_s": probe["build_s"],
            "elapsed_s": probe["elapsed_s"],
            "nodes_per_s": probe["nodes_per_s"],
            "min_nodes_per_s": min_nodes_per_s,
            "peak_rss_bytes": probe["peak_rss_bytes"],
            "max_rss_bytes": MAX_RSS_BYTES,
            "avg_mean": probe["avg_mean"],
            "max_mean": probe["max_mean"],
            "rule": probe["rule"],
        }
        entries.append(entry)
        _RESULTS[f"scale_{topology}_n{n}"] = entry
        assert probe["nodes_per_s"] >= min_nodes_per_s, (
            f"{topology} n={n}: {probe['nodes_per_s']:.0f} nodes/s below "
            f"{min_nodes_per_s:.0f} floor"
        )
        assert probe["peak_rss_bytes"] <= MAX_RSS_BYTES, (
            f"{topology} n={n}: peak RSS {probe['peak_rss_bytes']} over "
            f"{MAX_RSS_BYTES} ceiling"
        )
    # The scaling ratchet: throughput relative to the smallest probed size
    # must not collapse as n grows (the baseline gates trivially at 1.0).
    baseline = entries[0]["nodes_per_s"]
    print(f"\nscale path ({topology}, largest-id, fresh subprocess per size):")
    for entry in entries:
        entry["rel_nodes_per_s"] = entry["nodes_per_s"] / baseline
        entry["min_rel_nodes_per_s"] = (
            0.0 if entry is entries[0] else min_rel_nodes_per_s
        )
        print(
            f"  n={entry['n']}: {entry['nodes_per_s']:.0f} nodes/s "
            f"(rel {entry['rel_nodes_per_s']:.2f}), "
            f"rss {entry['peak_rss_bytes'] / 1024**2:.0f} MiB, "
            f"avg {entry['avg_mean']:.3f}, max {entry['max_mean']:.0f}"
        )
        assert entry["rel_nodes_per_s"] >= entry["min_rel_nodes_per_s"], (
            f"{topology} n={entry['n']}: relative rate "
            f"{entry['rel_nodes_per_s']:.2f} below the "
            f"{entry['min_rel_nodes_per_s']:.2f} scaling floor"
        )
    _write_artifact()
    return entries


def test_bench_scale_cycle_sizes():
    entries = _probe_sizes("cycle", SIZES, MIN_NODES_PER_S, MIN_REL_NODES_PER_S)
    for entry in entries:
        assert entry["rule"] == "ring-scan"
        # The cycle's classic measure is its eccentricity: floor(n/2).
        assert entry["max_mean"] == entry["n"] // 2


def test_bench_scale_general_graphs():
    for topology in GENERAL_TOPOLOGIES:
        entries = _probe_sizes(topology, GENERAL_SIZES, MIN_GENERAL_NODES_PER_S)
        assert all(entry["rule"] == "max-scan" for entry in entries)
