"""Compiled instances: one ``(graph, algorithm)`` pair as flat arrays.

Every aggregate measure in the paper — the classic worst case over
identifier assignments, Feuilloley's average measure, the full measure
distributions — evaluates *one* fixed ``(graph, algorithm)`` pair under
*many* assignments.  A :class:`CompiledInstance` hoists everything that
does not depend on the assignment out of that loop, once per pair:

* the CSR adjacency of the graph (``indptr`` / ``indices``); and
* a precompiled :class:`~repro.kernel.rules.KernelRule` — vectorised when
  the algorithm offers one
  (:meth:`~repro.core.algorithm.BallAlgorithm.compile_kernel_rule`),
  otherwise the decide-backed :class:`~repro.kernel.rules.RunnerTableRule`
  fallback behind the same interface.

The kernel reads nothing but that CSR, the graph's cached flat form
(:meth:`Graph.csr <repro.model.graph.Graph.csr>`): no frontier plan is
built at construction or by any vectorised rule.  The largest-ID rules
evaluate with an early-stopping BFS (:class:`~repro.kernel.rules.ScaleRule`),
the cone rules from each centre's own dependency cone.  Frontier
plans belong to the engine layer; the fallback rule reaches them only
through its own :class:`~repro.engine.frontier.FrontierRunner`.

:func:`simulate_batch` then evaluates a whole **matrix** of assignments per
call — rows are assignments, columns are positions — and returns the matrix
of per-node output radii.  It returns radii only; outputs come from
:class:`~repro.engine.frontier.FrontierRunner` traces.  The numpy fast path
and the pure-stdlib fallback are chosen at import time (see
:mod:`repro.kernel.backend`) and can be overridden per instance; both
are bit-identical to
:meth:`FrontierRunner.run <repro.engine.frontier.FrontierRunner.run>`,
which stays as the single-assignment reference path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.engine.cache import DECISION_CACHE_MAX_ENTRIES
from repro.errors import IdentifierError, TopologyError
from repro.kernel.backend import numpy_module, resolve_backend
from repro.kernel.rules import KernelRule, RunnerTableRule, ScaleRule
from repro.model.graph import Graph
from repro.obs import metrics as _metrics
from repro.obs.spans import obs_enabled as _obs_enabled, span as _obs_span

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.core.algorithm import BallAlgorithm

#: Largest identifier the numpy backend can gather (int64 arrays).  The
#: stdlib backend has no such limit; oversized identifiers on the numpy
#: path are rejected with a clear error instead of a raw OverflowError.
NUMPY_MAX_IDENTIFIER = 2**63 - 1

#: Default number of assignment rows per kernel call when a consumer
#: streams an unbounded workload (sampling, adversary candidates).
#: Large enough to amortise the per-batch dispatch, small enough to keep
#: the working set (rows × n integers) in cache at realistic sizes.
DEFAULT_BATCH_ROWS = 256


@dataclass
class KernelStats:
    """Usage counters of one compiled instance."""

    batches: int = 0
    rows: int = 0

    def as_dict(self) -> dict:
        """JSON-friendly form (result rows, benchmark artifacts)."""
        return {"batches": self.batches, "rows": self.rows}


class CompiledInstance:
    """The assignment-independent arrays of one ``(graph, algorithm)`` pair.

    Parameters
    ----------
    graph, algorithm:
        The fixed instance.  Connectivity and ``algorithm.supports_graph``
        are checked once at construction (disable with ``validate=False``
        when the caller already did).
    backend:
        ``"numpy"`` or ``"python"``; ``None`` uses the process default
        selected at import time (:func:`repro.kernel.backend.active_backend`).
    max_table_entries:
        Bound on the fallback rule's decision table.
    """

    def __init__(
        self,
        graph: Graph,
        algorithm: "BallAlgorithm",
        backend: Optional[str] = None,
        max_table_entries: int = DECISION_CACHE_MAX_ENTRIES,
        validate: bool = True,
    ) -> None:
        if validate:
            if not graph.is_connected():
                raise TopologyError("the LOCAL simulators require a connected graph")
            if not algorithm.supports_graph(graph):
                raise TopologyError(
                    f"algorithm {algorithm.name!r} does not support graph {graph.name!r}"
                )
        self.graph = graph
        self.algorithm = algorithm
        self.backend = resolve_backend(backend)
        self.max_table_entries = max_table_entries
        self.n = graph.n
        # CSR adjacency in port order: the neighbours of position ``v`` are
        # ``indices[indptr[v]:indptr[v + 1]]`` — the graph's own flat form,
        # shared with the engine's frontier plans, that every kernel rule
        # evaluates against.
        self.indptr, self.indices, _ = graph.csr()
        self.stats = KernelStats()
        # The vectorised rule (or None) is compiled eagerly — it is cheap
        # and callers branch on `vectorized` before ever running a batch.
        # The decide-backed fallback carries a full engine session, so it
        # is only built when a batch actually runs on this instance.
        with _obs_span("kernel.compile", algorithm=algorithm.name, n=self.n):
            self._vector_rule: Optional[KernelRule] = algorithm.compile_kernel_rule(self)
        self._fallback_rule: Optional[KernelRule] = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def rule(self) -> KernelRule:
        """The instance's batch rule (fallback materialised on first use)."""
        if self._vector_rule is not None:
            return self._vector_rule
        if self._fallback_rule is None:
            self._fallback_rule = RunnerTableRule(self)
        return self._fallback_rule

    @property
    def vectorized(self) -> bool:
        """Whether the instance evaluates batches with array expressions."""
        return self._vector_rule is not None and self._vector_rule.vectorized

    def describe(self) -> dict:
        """JSON-friendly identity of the compiled instance (result rows)."""
        return {
            "backend": self.backend,
            "rule": self.rule.name,
            "vectorized": self.rule.vectorized,
        }

    # ------------------------------------------------------------------
    # batch evaluation
    # ------------------------------------------------------------------
    def normalize_rows(self, ids_matrix: Iterable) -> list[tuple[int, ...]]:
        """Coerce an assignment matrix into validated rows of id tuples.

        Accepts any iterable of per-assignment rows — tuples, lists,
        :class:`~repro.model.identifiers.IdentifierAssignment` objects, or a
        2-D numpy array — and checks each row covers exactly ``n`` positions
        with pairwise-distinct identifiers.
        """
        rows = []
        for row in ids_matrix:
            identifiers = row.identifiers() if hasattr(row, "identifiers") else row
            values = tuple(int(identifier) for identifier in identifiers)
            if len(values) != self.n:
                raise TopologyError(
                    f"assignment row covers {len(values)} positions "
                    f"but graph has {self.n}"
                )
            if len(set(values)) != self.n:
                raise IdentifierError("identifiers must be pairwise distinct")
            if (
                self.backend == "numpy"
                and values
                and max(values) > NUMPY_MAX_IDENTIFIER
            ):
                raise IdentifierError(
                    f"identifier {max(values)} exceeds the numpy backend's "
                    f"int64 range; use REPRO_KERNEL=python (or "
                    f"backend='python') for identifiers above 2**63 - 1"
                )
            rows.append(values)
        return rows

    def batch_radii(self, ids_matrix: Iterable, pre_validated: bool = False):
        """Output radii for a whole matrix of assignments (rows = assignments).

        Rows come back as one tuple of radii per row; a 2-D numpy array
        comes back as the ``(rows, n)`` int64 radii array.  A CSR rule on
        numpy sweeps an int64 matrix as it is, other rules read tuples.

        ``pre_validated=True`` skips :meth:`normalize_rows` for trusted
        internal callers whose rows are valid by construction (canonical-leaf
        enumeration, seeded permutation draws) — the per-row check is
        measurable inside those hot loops.  Rows must
        then already be sequences of ``n`` distinct ints.
        """
        matrix = _is_matrix(ids_matrix)
        if matrix:
            if not pre_validated:
                self.normalize_rows(ids_matrix)
            rows = ids_matrix
        else:
            rows = list(ids_matrix) if pre_validated else self.normalize_rows(ids_matrix)
        if not len(rows):
            return numpy_module().zeros(rows.shape, dtype="int64") if matrix else []
        evaluate = self._matrix_radii if matrix else self.rule.batch_radii
        self.stats.batches += 1
        self.stats.rows += len(rows)
        if _obs_enabled():
            _metrics.add("kernel.batches")
            _metrics.add("kernel.rows", len(rows))
            with _obs_span(
                "kernel.simulate_batch", rows=len(rows), backend=self.backend
            ):
                return evaluate(rows)
        return evaluate(rows)

    def _matrix_radii(self, ids):
        """The ``(rows, n)`` int64 radii of an identifier array."""
        rule = self.rule
        if isinstance(rule, ScaleRule) and rule.backend == "numpy":
            return rule.block_radii(ids)
        np = numpy_module()
        return np.array(rule.batch_radii(ids.tolist()), dtype=np.int64).reshape(ids.shape)


def _is_matrix(rows) -> bool:
    """Whether ``rows`` is a 2-D array (evaluated whole, answered as one)."""
    return getattr(rows, "ndim", None) == 2


def compile_instance(
    graph: Graph,
    algorithm: "BallAlgorithm",
    backend: Optional[str] = None,
    max_table_entries: int = DECISION_CACHE_MAX_ENTRIES,
    validate: bool = True,
) -> CompiledInstance:
    """Compile one ``(graph, algorithm)`` pair for batch evaluation."""
    return CompiledInstance(
        graph,
        algorithm,
        backend=backend,
        max_table_entries=max_table_entries,
        validate=validate,
    )


@dataclass
class BatchRequest:
    """One block of a multi-instance batch: rows for one compiled instance.

    ``pre_validated`` has the same meaning as in
    :meth:`CompiledInstance.batch_radii`: set it for rows that are valid by
    construction (permutation draws, canonical-leaf enumeration).
    """

    instance: CompiledInstance
    rows: Sequence
    pre_validated: bool = False


def simulate_many(requests: Sequence[BatchRequest]) -> list:
    """Evaluate many ``(instance, rows)`` blocks as one ragged multi-instance batch.

    The cross-instance counterpart of :func:`simulate_batch`: requests may
    target different ``(graph, algorithm)`` pairs (different row widths —
    the batch is ragged).  Each request's rows run in chunks of
    :data:`DEFAULT_BATCH_ROWS`; results come back per request, in request
    order, bit-identical to calling :meth:`CompiledInstance.batch_radii`
    per block.  A request whose rows are a 2-D numpy array is a block its
    caller already sized (the exact search's leaf matrix): it is evaluated
    whole, and answered with one ``(rows, n)`` int64 radii array.

    This is the kernel's one entry point for the adversaries, the exact
    search and the sampled cells of a distribution query (see
    :meth:`repro.api.session.Session.run`).
    """
    results = []
    for request in requests:
        instance, rows = request.instance, request.rows
        if _is_matrix(rows):
            results.append(instance.batch_radii(rows, request.pre_validated))
            continue
        rows = list(rows) if request.pre_validated else instance.normalize_rows(rows)
        radii: list[tuple[int, ...]] = []
        for offset in range(0, len(rows), DEFAULT_BATCH_ROWS):
            chunk = rows[offset : offset + DEFAULT_BATCH_ROWS]
            radii.extend(instance.batch_radii(chunk, pre_validated=True))
        results.append(radii)
    return results


def simulate_batch(
    instance: CompiledInstance, ids_matrix: Sequence
) -> list[tuple[int, ...]]:
    """Evaluate a matrix of assignments: rows = assignments, columns = positions.

    Returns one tuple of per-position output radii per input row, in input
    order, bit-identical to running each row through
    :meth:`FrontierRunner.run <repro.engine.frontier.FrontierRunner.run>`.

    >>> from repro.algorithms.largest_id import LargestIdAlgorithm
    >>> from repro.topology.cycle import cycle_graph
    >>> instance = compile_instance(cycle_graph(5), LargestIdAlgorithm())
    >>> simulate_batch(instance, [(0, 1, 2, 3, 4), (4, 3, 2, 1, 0)])
    [(1, 1, 1, 1, 2), (2, 1, 1, 1, 1)]
    """
    return instance.batch_radii(ids_matrix)
