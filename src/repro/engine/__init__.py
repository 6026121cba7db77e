"""High-throughput simulation engine.

The fast execution path for the whole library, layered as:

* :mod:`repro.engine.frontier` — :class:`FrontierRunner`, a per-``(graph,
  algorithm)`` session that grows every node's ball incrementally by
  frontier BFS and advances all undecided nodes round by round;
* :mod:`repro.engine.cache` — :class:`DecisionCache`, memoising
  ``algorithm.decide`` on canonical (optionally id-relabeled) ball
  signatures, with hit/miss statistics;
* :mod:`repro.engine.batch` — :class:`BatchExecutor`, deterministic
  multiprocessing fan-out with per-task seeding;
* :mod:`repro.engine.campaign` — the grid registries (topologies,
  adversaries, distribution methods) and their factories.

The legacy entry points (:func:`repro.core.runner.run_ball_algorithm`, the
adversaries, the measures) are thin wrappers over this package, so existing
code gets the fast path for free; the engine's traces are bit-identical to
the legacy runner's (see ``tests/property/test_property_engine.py``).
"""

from repro.engine.batch import BatchExecutor, derive_task_seed
from repro.engine.cache import CacheStats, DecisionCache
from repro.engine.campaign import (
    ADVERSARY_NAMES,
    DIST_METHODS,
    TOPOLOGY_BUILDERS,
    build_topology,
)
from repro.engine.frontier import FrontierRunner

__all__ = [
    "ADVERSARY_NAMES",
    "BatchExecutor",
    "CacheStats",
    "DIST_METHODS",
    "DecisionCache",
    "FrontierRunner",
    "TOPOLOGY_BUILDERS",
    "build_topology",
    "derive_task_seed",
]
