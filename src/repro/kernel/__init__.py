"""The batch kernel: compiled instances and array-backed batch simulation.

Layer between the engine (single-assignment frontier sessions) and the
measure layers (search, dist, api): a
:class:`~repro.kernel.compile.CompiledInstance` flattens one
``(graph, algorithm)`` pair into integer arrays computed once per pair, and
:func:`~repro.kernel.compile.simulate_batch` evaluates whole matrices of
identifier assignments per call — thousands of rows over flat arrays
instead of one Python-object simulation per assignment.

Backends: a numpy fast path and a pure-stdlib fallback, selected once per
process (on first kernel use) and overridable via ``REPRO_KERNEL={numpy,python}``
(:mod:`repro.kernel.backend`).  Consumers: distribution sampling streams
sample chunks through the kernel, the exact enumerations evaluate
canonical-leaf cohorts as batches, the swap-based searches score candidate
moves in batches, and :class:`repro.api.session.Session` caches compiled
instances next to its engine runners.
"""

from repro.kernel.backend import (
    KERNEL_BACKENDS,
    KERNEL_ENV,
    active_backend,
    numpy_available,
    resolve_backend,
)
from repro.kernel.compile import (
    DEFAULT_BATCH_ROWS,
    BatchRequest,
    CompiledInstance,
    KernelStats,
    compile_instance,
    simulate_batch,
    simulate_many,
)
from repro.kernel.cone import GreedyConeRule, RingMISConeRule
from repro.kernel.cvring import ColeVishkinRingRule
from repro.kernel.rules import (
    KernelRule,
    MaxScanScaleRule,
    RingScanScaleRule,
    RunnerTableRule,
    ScaleRule,
)
from repro.kernel.shard import (
    SCALE_ALGORITHMS,
    ScaleRowStats,
    ShardedKernelExecutor,
    run_scale_probe,
    scale_rule_for,
)

__all__ = [
    "BatchRequest",
    "ColeVishkinRingRule",
    "CompiledInstance",
    "DEFAULT_BATCH_ROWS",
    "GreedyConeRule",
    "KERNEL_BACKENDS",
    "KERNEL_ENV",
    "KernelRule",
    "KernelStats",
    "MaxScanScaleRule",
    "RingMISConeRule",
    "RingScanScaleRule",
    "RunnerTableRule",
    "SCALE_ALGORITHMS",
    "ScaleRowStats",
    "ScaleRule",
    "ShardedKernelExecutor",
    "active_backend",
    "compile_instance",
    "numpy_available",
    "resolve_backend",
    "run_scale_probe",
    "scale_rule_for",
    "simulate_batch",
    "simulate_many",
]
