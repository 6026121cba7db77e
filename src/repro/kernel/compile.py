"""Compiled instances: one ``(graph, algorithm)`` pair as flat arrays.

Every aggregate measure in the paper — the classic worst case over
identifier assignments, Feuilloley's average measure, the full measure
distributions — evaluates *one* fixed ``(graph, algorithm)`` pair under
*many* assignments.  A :class:`CompiledInstance` hoists everything that
does not depend on the assignment out of that loop, once per pair:

* the CSR adjacency of the graph (``indptr`` / ``indices`` / ``ports``);
* per-centre frontier prefixes in BFS discovery order (reusing the engine's
  :class:`~repro.engine.frontier._CenterPlan` objects, which are cached on
  the graph and shared with every :class:`~repro.engine.frontier.FrontierRunner`);
* each centre's saturation radius and radius cap; and
* a precompiled :class:`~repro.kernel.rules.KernelRule` — vectorised when
  the algorithm offers one
  (:meth:`~repro.core.algorithm.BallAlgorithm.compile_kernel_rule`),
  otherwise the decide-backed :class:`~repro.kernel.rules.RunnerTableRule`
  fallback behind the same interface.

:func:`simulate_batch` then evaluates a whole **matrix** of assignments per
call — rows are assignments, columns are positions — and returns the matrix
of per-node output radii.  The numpy fast path and the pure-stdlib fallback
are chosen at import time (see :mod:`repro.kernel.backend`) and can be
overridden per instance; both are bit-identical to
:meth:`FrontierRunner.run <repro.engine.frontier.FrontierRunner.run>`,
which stays as the single-assignment reference path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.engine.frontier import _CenterPlan, center_plan, engine_structure
from repro.errors import ConfigurationError, IdentifierError, TopologyError
from repro.kernel.backend import resolve_backend
from repro.kernel.rules import KernelRule, MaxScanRule, RunnerTableRule
from repro.utils.validation import require_positive_int
from repro.model.graph import Graph
from repro.model.trace import ExecutionTrace, NodeRecord
from repro.obs import metrics as _metrics
from repro.obs.spans import obs_enabled as _obs_enabled, span as _obs_span

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.core.algorithm import BallAlgorithm

#: Default bound on the fallback rule's decision table, matching the
#: session caches of the adversaries and the API layer.
DEFAULT_MAX_TABLE_ENTRIES = 1 << 18

#: Largest identifier the numpy backend can gather (int64 arrays).  The
#: stdlib backend has no such limit; oversized identifiers on the numpy
#: path are rejected with a clear error instead of a raw OverflowError.
NUMPY_MAX_IDENTIFIER = 2**63 - 1

#: Default number of assignment rows per kernel call when a consumer
#: streams an unbounded workload (sampling, canonical-leaf cohorts).
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


@dataclass
class PlanStats:
    """Plan-residency counters of one compiled instance.

    ``built`` counts every :class:`~repro.engine.frontier._CenterPlan`
    constructed over the instance's lifetime (chunked instances rebuild
    plans per evaluation sweep); ``resident`` / ``peak_resident`` track how
    many the instance holds alive at once — the quantity ``plan_chunk``
    bounds, and the regression tests assert never exceeds it.
    """

    built: int = 0
    resident: int = 0
    peak_resident: int = 0

    def acquire(self) -> None:
        self.built += 1
        self.resident += 1
        if self.resident > self.peak_resident:
            self.peak_resident = self.resident

    def release_all(self) -> None:
        self.resident = 0

    def as_dict(self) -> dict:
        """JSON-friendly form (result rows, benchmark artifacts)."""
        return {
            "built": self.built,
            "resident": self.resident,
            "peak_resident": self.peak_resident,
        }


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
    plan_chunk:
        ``None`` (the default) compiles eagerly: every centre's frontier
        plan stays resident for the instance's lifetime — O(n · ball)
        memory, fastest for repeated batches.  A positive integer selects
        **chunked plan mode**: at most ``plan_chunk`` plans are ever
        resident at once (compile memory O(chunk · ball)); evaluation
        sweeps :meth:`iter_plan_chunks` centre-major per batch.  Chunked
        mode requires a kernel rule with ``supports_plan_chunk`` (the
        largest-ID :class:`~repro.kernel.rules.MaxScanRule` qualifies);
        plan-hungry rules are rejected with a
        :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(
        self,
        graph: Graph,
        algorithm: "BallAlgorithm",
        backend: Optional[str] = None,
        max_table_entries: int = DEFAULT_MAX_TABLE_ENTRIES,
        validate: bool = True,
        plan_chunk: Optional[int] = None,
    ) -> None:
        if validate:
            if not graph.is_connected():
                raise TopologyError("the LOCAL simulators require a connected graph")
            if not algorithm.supports_graph(graph):
                raise TopologyError(
                    f"algorithm {algorithm.name!r} does not support graph {graph.name!r}"
                )
        if plan_chunk is not None:
            require_positive_int(plan_chunk, "plan_chunk")
        self.graph = graph
        self.algorithm = algorithm
        self.backend = resolve_backend(backend)
        self.max_table_entries = max_table_entries
        self.n = graph.n
        self.plan_chunk = plan_chunk
        self._csr: Optional[tuple[tuple[int, ...], ...]] = None
        self._structure: Optional[tuple] = None
        self.stats = KernelStats()
        self.plan_stats = PlanStats()
        if plan_chunk is None:
            # Frontier prefixes, straight from the shared _CenterPlan objects:
            # discovery[v] lists the ball members of centre v in BFS order,
            # distances[v][i] is the layer (= radius of first visibility) of
            # discovery[v][i], member_counts[v][r] the prefix length of the
            # radius-r ball.
            plans = [center_plan(graph, v) for v in graph.positions()]
            self._discovery = tuple(plan.discovery for plan in plans)
            self._distances = tuple(plan.distances for plan in plans)
            self._member_counts = tuple(tuple(plan.member_counts) for plan in plans)
            self.saturation = tuple(plan.saturation_radius() for plan in plans)
            self.plan_stats.built = self.n
            self.plan_stats.resident = self.n
            self.plan_stats.peak_resident = self.n
            self._plan_entries = sum(
                2 * len(plan.discovery) + len(plan.member_counts) for plan in plans
            )
            self._peak_chunk_entries = self._plan_entries
        else:
            # Chunked mode: no plan survives construction.  One sweep
            # collects the per-centre scalars every consumer needs up front
            # (saturation radii, size accounting); evaluation rebuilds plans
            # chunk by chunk via iter_plan_chunks.
            self._discovery = None
            self._distances = None
            self._member_counts = None
            saturation: list[int] = []
            entries = 0
            peak_chunk_entries = 0
            for _, plans in self.iter_plan_chunks():
                chunk_entries = sum(
                    2 * len(plan.discovery) + len(plan.member_counts) for plan in plans
                )
                entries += chunk_entries
                peak_chunk_entries = max(peak_chunk_entries, chunk_entries)
                saturation.extend(plan.saturation_radius() for plan in plans)
            self.saturation = tuple(saturation)
            self._plan_entries = entries
            self._peak_chunk_entries = peak_chunk_entries
        self.caps = tuple(radius + 1 for radius in self.saturation)
        # The vectorised rule (or None) is compiled eagerly — it is cheap
        # and callers branch on `vectorized` before ever running a batch.
        # The decide-backed fallback carries a full engine session, so it
        # is only built when a batch actually runs on this instance.
        self._vector_rule: Optional[KernelRule] = algorithm.compile_kernel_rule(self)
        self._fallback_rule: Optional[KernelRule] = None
        if plan_chunk is not None:
            rule = self._vector_rule
            if rule is None or not getattr(rule, "supports_plan_chunk", False):
                offender = rule.name if rule is not None else "the decide-backed fallback"
                raise ConfigurationError(
                    f"plan_chunk requires a chunk-capable kernel rule, but "
                    f"algorithm {algorithm.name!r} compiles {offender}, which "
                    f"needs every centre plan resident; compile without "
                    f"plan_chunk instead"
                )

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

    def _resident_plans(self, table, label: str):
        if table is None:
            raise ConfigurationError(
                f"this instance was compiled with plan_chunk={self.plan_chunk}; "
                f"{label} is never fully resident — walk iter_plan_chunks() "
                f"instead"
            )
        return table

    @property
    def discovery(self) -> tuple[tuple[int, ...], ...]:
        """Per-centre ball members in BFS discovery order (eager mode only)."""
        return self._resident_plans(self._discovery, "the discovery table")

    @property
    def distances(self) -> tuple[tuple[int, ...], ...]:
        """Per-centre discovery layers (eager mode only)."""
        return self._resident_plans(self._distances, "the distance table")

    @property
    def member_counts(self) -> tuple[tuple[int, ...], ...]:
        """Per-centre radius-r prefix lengths (eager mode only)."""
        return self._resident_plans(self._member_counts, "the member-count table")

    def iter_plan_chunks(self):
        """Yield ``(centers, plans)`` with ≤ ``plan_chunk`` plans resident.

        The chunked-mode evaluation surface: each yielded ``plans`` list
        holds fresh :class:`~repro.engine.frontier._CenterPlan` objects for
        ``centers`` (a :class:`range`), built directly against the graph's
        shared adjacency — deliberately *not* through
        :func:`~repro.engine.frontier.center_plan`, whose per-graph cache
        would keep every plan alive and defeat the memory bound.
        :attr:`plan_stats` tracks residency; the regression tests assert
        ``peak_resident <= plan_chunk``.
        """
        if self.plan_chunk is None:
            raise ConfigurationError(
                "iter_plan_chunks requires chunked plan mode; this instance "
                "was compiled eagerly (plan_chunk=None) — read .discovery / "
                ".distances directly"
            )
        if self._structure is None:
            adjacency, _, degrees = engine_structure(self.graph)
            self._structure = (adjacency, degrees)
        adjacency, degrees = self._structure
        for start in range(0, self.n, self.plan_chunk):
            stop = min(self.n, start + self.plan_chunk)
            plans = []
            for center in range(start, stop):
                plans.append(_CenterPlan(center, adjacency, degrees))
                self.plan_stats.acquire()
            yield range(start, stop), plans
            plans.clear()
            self.plan_stats.release_all()

    def _csr_arrays(self) -> tuple[tuple[int, ...], ...]:
        """CSR adjacency (built on first access): neighbours of position
        ``v`` are ``indices[indptr[v]:indptr[v + 1]]``, with ``ports[k]``
        the port of the edge on the ``v`` side — the flat-array form of the
        graph for rules (and external tooling) that want to gather against
        adjacency rather than frontier prefixes."""
        if self._csr is None:
            adjacency, _, _ = engine_structure(self.graph)
            indptr = [0]
            indices: list[int] = []
            ports: list[int] = []
            for triples in adjacency:
                for u, port_vu, _ in triples:
                    indices.append(u)
                    ports.append(port_vu)
                indptr.append(len(indices))
            self._csr = (tuple(indptr), tuple(indices), tuple(ports))
        return self._csr

    @property
    def indptr(self) -> tuple[int, ...]:
        """CSR row pointers (see :meth:`_csr_arrays`)."""
        return self._csr_arrays()[0]

    @property
    def indices(self) -> tuple[int, ...]:
        """CSR neighbour stream (see :meth:`_csr_arrays`)."""
        return self._csr_arrays()[1]

    @property
    def ports(self) -> tuple[int, ...]:
        """CSR port stream (see :meth:`_csr_arrays`)."""
        return self._csr_arrays()[2]

    def describe(self) -> dict:
        """JSON-friendly identity of the compiled instance (result rows).

        ``plan_entries`` counts every integer across all centre plans
        (discovery + distance + member-count streams); ``plan_bytes`` is the
        estimated *resident* plan footprint at 8 bytes per entry — the full
        table in eager mode, the largest single chunk in chunked mode.
        """
        return {
            "backend": self.backend,
            "rule": self.rule.name,
            "vectorized": self.rule.vectorized,
            "plan_mode": "chunked" if self.plan_chunk is not None else "eager",
            "plan_chunk": self.plan_chunk,
            "plan_entries": self._plan_entries,
            "plan_bytes": self._peak_chunk_entries * 8,
            "peak_resident_plans": self.plan_stats.peak_resident,
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

    def batch_radii(
        self, ids_matrix: Iterable, pre_validated: bool = False
    ) -> list[tuple[int, ...]]:
        """Output radii for a whole matrix of assignments (rows = assignments).

        ``pre_validated=True`` skips :meth:`normalize_rows` for trusted
        internal callers whose rows are valid by construction (canonical-leaf
        enumeration, draws that already passed
        :class:`~repro.model.identifiers.IdentifierAssignment` validation) —
        the per-row check is measurable inside those hot loops.  Rows must
        then already be sequences of ``n`` distinct ints.
        """
        rows = list(ids_matrix) if pre_validated else self.normalize_rows(ids_matrix)
        if not rows:
            return []
        self.stats.batches += 1
        self.stats.rows += len(rows)
        if _obs_enabled():
            _metrics.add("kernel.batches")
            _metrics.add("kernel.rows", len(rows))
            with _obs_span(
                "kernel.simulate_batch", rows=len(rows), backend=self.backend
            ):
                return self.rule.batch_radii(rows)
        return self.rule.batch_radii(rows)

    def batch_traces(self, ids_matrix: Iterable) -> list[ExecutionTrace]:
        """Full :class:`ExecutionTrace` objects for a matrix of assignments.

        The trace-parity surface: the property suite asserts these are
        bit-identical to :meth:`FrontierRunner.run` for every registered
        algorithm under both backends.
        """
        rows = self.normalize_rows(ids_matrix)
        if not rows:
            return []
        self.stats.batches += 1
        self.stats.rows += len(rows)
        if _obs_enabled():
            _metrics.add("kernel.batches")
            _metrics.add("kernel.rows", len(rows))
            with _obs_span(
                "kernel.simulate_batch", rows=len(rows), backend=self.backend
            ):
                radii_rows, output_rows = self.rule.batch_radii_outputs(rows)
        else:
            radii_rows, output_rows = self.rule.batch_radii_outputs(rows)
        traces = []
        for ids, radii, outputs in zip(rows, radii_rows, output_rows):
            records = {
                position: NodeRecord(
                    position=position,
                    identifier=ids[position],
                    radius=radii[position],
                    output=outputs[position],
                )
                for position in range(self.n)
            }
            traces.append(ExecutionTrace(records))
        return traces


def compile_instance(
    graph: Graph,
    algorithm: "BallAlgorithm",
    backend: Optional[str] = None,
    max_table_entries: int = DEFAULT_MAX_TABLE_ENTRIES,
    validate: bool = True,
    plan_chunk: Optional[int] = None,
) -> CompiledInstance:
    """Compile one ``(graph, algorithm)`` pair for batch evaluation."""
    return CompiledInstance(
        graph,
        algorithm,
        backend=backend,
        max_table_entries=max_table_entries,
        validate=validate,
        plan_chunk=plan_chunk,
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


def _padded_groups(
    merged: dict[int, tuple[CompiledInstance, list]]
) -> list[list[int]]:
    """Keys of merged instances that can share one padded evaluation.

    Eligibility is strict: numpy backend, eager (non-chunked) plans, the
    exact :class:`~repro.kernel.rules.MaxScanRule`, and identical
    ``(n, stream length)`` shape — and a group only forms with at least two
    members, since padding a single instance is pure overhead.  Streams
    longer than one :data:`DEFAULT_BATCH_ROWS` chunk stay sequential too:
    stacking pays off by amortising per-call dispatch overhead across many
    small same-shape cells (the campaign-grid workload), while a single
    long stream already keeps each array call busy.  Checking
    ``_vector_rule`` directly (never the ``rule`` property) avoids
    materialising the decide-backed fallback just to inspect it.
    """
    shapes: dict[tuple[int, int], list[int]] = {}
    for key, (instance, stream) in merged.items():
        if (
            stream
            and len(stream) <= DEFAULT_BATCH_ROWS
            and instance.backend == "numpy"
            and instance.plan_chunk is None
            and type(instance._vector_rule) is MaxScanRule
        ):
            shapes.setdefault((instance.n, len(stream)), []).append(key)
    return [keys for keys in shapes.values() if len(keys) >= 2]


def simulate_many(
    requests: Sequence[BatchRequest], pad_same_shape: bool = True
) -> list[list[tuple[int, ...]]]:
    """Evaluate many ``(instance, rows)`` blocks as one ragged multi-instance batch.

    The cross-instance counterpart of :func:`simulate_batch`: requests may
    target different ``(graph, algorithm)`` pairs (different row widths —
    the batch is ragged), and blocks aimed at the same compiled instance are
    merged so the instance evaluates one row stream instead of one small
    batch per caller.  Each merged stream runs in chunks of
    :data:`DEFAULT_BATCH_ROWS`; results come back per request, in request
    order, bit-identical to calling
    :meth:`CompiledInstance.batch_radii` per block.

    With ``pad_same_shape`` (the default), merged instances that share a
    ``(n, stream length)`` shape on the numpy backend under
    :class:`~repro.kernel.rules.MaxScanRule` are *stacked and padded* into
    one array evaluation per row chunk instead of running sequentially
    (see :meth:`~repro.kernel.rules.MaxScanRule.padded_batch_radii` for why
    padding is exact).  The property wall asserts the fast path is
    bit-identical to the sequential one; pass ``pad_same_shape=False`` to
    force sequential evaluation (the benchmarks do, to measure the gap).

    This is how a distribution query submits a whole grid of sampled
    cells through one kernel entry point (see
    :meth:`repro.api.session.Session.run`).
    """
    # Normalise per request first so validation errors point at the caller's
    # block, then merge trusted rows per instance.
    blocks: list[tuple[CompiledInstance, list[tuple[int, ...]]]] = []
    for request in requests:
        rows = (
            list(request.rows)
            if request.pre_validated
            else request.instance.normalize_rows(request.rows)
        )
        blocks.append((request.instance, rows))
    merged: dict[int, tuple[CompiledInstance, list]] = {}
    spans: list[tuple[int, int, int]] = []  # (instance key, start, stop)
    for instance, rows in blocks:
        key = id(instance)
        if key not in merged:
            merged[key] = (instance, [])
        stream = merged[key][1]
        start = len(stream)
        stream.extend(rows)
        spans.append((key, start, len(stream)))
    results: dict[int, list[tuple[int, ...]]] = {}
    if pad_same_shape:
        for keys in _padded_groups(merged):
            instances = [merged[key][0] for key in keys]
            streams = [merged[key][1] for key in keys]
            rules = [instance._vector_rule for instance in instances]
            length = len(streams[0])
            group_radii: list[list[tuple[int, ...]]] = [[] for _ in keys]
            for offset in range(0, length, DEFAULT_BATCH_ROWS):
                chunks = [stream[offset : offset + DEFAULT_BATCH_ROWS] for stream in streams]
                rows_here = len(chunks[0])
                for instance in instances:
                    instance.stats.batches += 1
                    instance.stats.rows += rows_here
                if _obs_enabled():
                    _metrics.add("kernel.padded_batches")
                    _metrics.add("kernel.rows", rows_here * len(keys))
                    with _obs_span(
                        "kernel.padded_batch",
                        instances=len(keys),
                        rows=rows_here,
                        n=instances[0].n,
                    ):
                        padded = MaxScanRule.padded_batch_radii(rules, chunks)
                else:
                    padded = MaxScanRule.padded_batch_radii(rules, chunks)
                for radii, part in zip(group_radii, padded):
                    radii.extend(part)
            for key, radii in zip(keys, group_radii):
                results[key] = radii
    for key, (instance, stream) in merged.items():
        if key in results:
            continue
        radii: list[tuple[int, ...]] = []
        for offset in range(0, len(stream), DEFAULT_BATCH_ROWS):
            radii.extend(
                instance.batch_radii(
                    stream[offset : offset + DEFAULT_BATCH_ROWS], pre_validated=True
                )
            )
        results[key] = radii
    return [results[key][start:stop] for key, start, stop in spans]


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
