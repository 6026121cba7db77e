"""Sessions: one owner for the shared execution infrastructure.

Before this layer, every entry point built its own world per call — a fresh
graph, fresh frontier plans, a fresh :class:`~repro.engine.cache.DecisionCache`,
a fresh automorphism group.  A :class:`Session` owns all of that *across*
calls:

* built graphs are cached per ``(topology, n, seed)`` — and because frontier
  plans and automorphism groups live on the :class:`~repro.model.graph.Graph`
  object, every later query on the same instance reuses them;
* ball-compiled algorithm instances are cached per ``(name, n)``;
* one :class:`~repro.engine.frontier.FrontierRunner` +
  :class:`~repro.engine.cache.DecisionCache` pair is kept per
  ``(graph, algorithm)``, so repeated ``simulate`` queries skip both the
  plan construction and most ``decide`` calls;
* process fan-out goes through one :class:`~repro.engine.batch.BatchExecutor`
  configuration.

``benchmarks/test_bench_api.py`` measures the effect: a warm session beats
fresh per-call setup by well over the asserted 1.5× on repeated-query
workloads (artifact ``BENCH_api.json``).

:meth:`Session.run` is the one executor: it expands a
:class:`~repro.api.query.Query` into :class:`Cell` objects, computes one row
per cell with the mode's row function (:func:`simulate_row`,
:func:`search_row` for both ``worst-case`` and ``sweep``,
:func:`distribution_row`, :func:`scale_row`; sampled distribution cells
batch through one kernel submission), serially or on the warm pool, and
returns a :class:`~repro.api.results.Result`.  The mode methods —
:meth:`Session.simulate`, :meth:`Session.worst_case`,
:meth:`Session.distribution`, :meth:`Session.sweep`, :meth:`Session.scale`
— are :meth:`Session.run` with the mode checked.  Module level,
:func:`query` runs against a lazily created default session — the one-liner
``repro.query(...)`` of the README quickstart.

Determinism: cell seeds derive from the query seed and the cell coordinates
(:func:`~repro.engine.batch.derive_task_seed`), so a query returns the same
rows at any worker count — warm or cold, only the ``cache``/``wall_time_s``
diagnostics differ.
"""

from __future__ import annotations

import itertools
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.api.query import Query
from repro.api.results import Result
from repro.core.certification import certify
from repro.core.measures import ComplexityReport
from repro.dist.exact import exact_round_distribution
from repro.dist.sampling import DistributionFold, draw_sample_rows, fold_scale_stats
from repro.engine.batch import BatchExecutor, derive_task_seed
from repro.engine.cache import DECISION_CACHE_MAX_ENTRIES, DecisionCache
from repro.engine.campaign import (
    build_topology,
    make_adversary,
    make_ball_algorithm,
)
from repro.engine.frontier import FrontierRunner
from repro.engine.pool import ShmRef, fetch_memoryview, worker_cache
from repro.errors import AnalysisError, ConfigurationError
from repro.kernel.compile import (
    BatchRequest,
    CompiledInstance,
    compile_instance,
    simulate_many,
)
from repro.kernel.backend import numpy_module
from repro.kernel.shard import ShardedKernelExecutor
from repro.topology.stream import DETERMINISTIC_TOPOLOGIES, CSRTopology, build_csr
from repro.model.graph import Graph
from repro.model.identifiers import IdentifierAssignment, make_identifier_assignment
from repro.model.trace import ExecutionTrace
from repro.obs import build_profile, metrics as _metrics
from repro.obs.spans import span as _obs_span

#: Bounds on how many graphs / algorithm instances / engine runners /
#: compiled kernel instances a session retains.  Long-lived sessions (the
#: process-wide default behind ``repro.query``) stream arbitrarily many
#: distinct instances through, so each cache evicts its least-recently-used
#: entry once full instead of growing without bound — eviction only costs
#: warmth, never correctness.
SESSION_MAX_GRAPHS = 256
SESSION_MAX_ALGORITHMS = 256
SESSION_MAX_RUNNERS = 64
SESSION_MAX_KERNELS = 64

#: Bound on retained streamed CSR topologies.  Deliberately small: one
#: million-node CSR is tens of megabytes, so the scale cache trades warmth
#: for a hard memory ceiling.
SESSION_MAX_CSRS = 8


class _LruCache:
    """A bounded mapping with least-recently-used eviction and counters.

    Lookups move the hit entry to the most-recent end, so a *hot* entry —
    one the session keeps coming back to between misses — survives a cold
    sweep of one-shot instances that would evict it under plain
    oldest-insertion eviction.  Hit/miss/eviction counts feed the
    ``cache["session"]`` diagnostics of every :class:`~repro.api.results.Result`.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ConfigurationError(f"cache limit must be >= 1, got {limit}")
        self.limit = limit
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def get(self, key):
        """The cached value (refreshing its recency), or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key, value) -> None:
        """Insert ``value``, evicting the least recently used beyond the limit."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)
            self.evictions += 1

    def pop(self, key) -> None:
        """Drop one entry if present (external invalidation, e.g. store GC)."""
        self._entries.pop(key, None)


@dataclass(frozen=True)
class Cell:
    """One fully specified point of a query's grid, in any mode.

    ``variant`` is the mode's fourth grid axis: the identifier family
    (``simulate``), the adversary (``worst-case``/``sweep``), the method
    (``distribution``) or ``None`` (``scale``).  ``graph_seed`` builds the
    instance and ``seed`` feeds the cell's own randomness (identifier
    draws, randomised searches).  Outside the search modes the graph seed
    leaves out the variant, so both methods of a distribution coordinate
    see the identical random graph; in ``simulate`` and ``scale`` it leaves
    out the algorithm too.
    """

    index: int
    topology: str
    n: int
    algorithm: str
    variant: Optional[str]
    graph_seed: int
    seed: int

    @property
    def key(self) -> str:
        """The estimator-state key of a sampled cell (stable across budgets)."""
        return f"{self.topology}|{self.n}|{self.algorithm}"


def query_cells(query: Query) -> list[Cell]:
    """Expand a query into its deterministic, individually seeded cells."""
    mode, base = query.mode, query.seed
    variants = {
        "simulate": (query.ids,),
        "worst-case": query.adversaries,
        "sweep": query.adversaries,
        "distribution": query.methods,
        "scale": (None,),
    }[mode]
    grid = itertools.product(query.topologies, query.sizes, query.algorithms, variants)
    cells = []
    for index, (topology, n, algorithm, variant) in enumerate(grid):
        if mode in ("worst-case", "sweep"):
            graph_seed = seed = derive_task_seed(base, topology, n, algorithm, variant)
        elif mode == "distribution":
            graph_seed = derive_task_seed(base, "dist", topology, n, algorithm)
            seed = derive_task_seed(base, "dist", topology, n, algorithm, variant)
        else:
            graph_seed = derive_task_seed(base, mode, topology, n)
            extra = () if variant is None else (variant,)
            seed = derive_task_seed(base, mode, topology, n, algorithm, *extra)
        cells.append(Cell(index, topology, n, algorithm, variant, graph_seed, seed))
    return cells


# ----------------------------------------------------------------------
# one row function per mode: (session, query, cell, workers) -> row
# ----------------------------------------------------------------------
def simulate_row(session: "Session", query: Query, cell: Cell, workers: int = 1) -> dict:
    """One ``simulate`` cell: both measures of one seeded assignment, certified.

    The row's ``cache`` entry is the *delta* of the session runner's
    decision-cache counters over this run.
    """
    graph = session.graph(cell.topology, cell.n, cell.graph_seed)
    algorithm = session.ball_algorithm(cell.algorithm, graph.n)
    runner = session.runner(graph, algorithm)
    ids = make_identifier_assignment(cell.variant, graph.n, cell.seed)
    stats = runner.cache.stats
    hits_before, misses_before = stats.hits, stats.misses
    started = time.perf_counter()
    with _obs_span(
        "engine.simulate_cell",
        topology=cell.topology,
        n=cell.n,
        algorithm=cell.algorithm,
    ):
        trace = runner.run(ids)
    elapsed = time.perf_counter() - started
    certify(algorithm.problem, graph, ids, trace)
    hits = stats.hits - hits_before
    misses = stats.misses - misses_before
    return {
        "index": cell.index,
        "topology": cell.topology,
        "n": cell.n,
        "graph_n": graph.n,
        "graph_m": graph.m,
        "graph": graph.name,
        "algorithm": cell.algorithm,
        "ids": cell.variant,
        "identifiers": list(ids.identifiers()),
        "seed": cell.seed,
        "graph_seed": cell.graph_seed,
        "classic": trace.max_radius,
        "average": trace.average_radius,
        "sum": trace.sum_radius,
        "histogram": {str(radius): count for radius, count in trace.radius_histogram().items()},
        "certified": True,
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / (hits + misses)) if hits + misses else 0.0,
        },
        "wall_time_s": elapsed,
    }


def search_row(session: "Session", query: Query, cell: Cell, workers: int = 1) -> dict:
    """One ``worst-case``/``sweep`` cell: an adversary's search and its certificate.

    ``workers`` feeds the portfolio adversary's strategy fan-out.
    """
    graph = session.graph(cell.topology, cell.n, cell.graph_seed)
    algorithm = session.ball_algorithm(cell.algorithm, graph.n)
    adversary = make_adversary(cell.variant, query, seed=cell.seed, workers=workers)
    started = time.perf_counter()
    with _obs_span(
        "engine.search_cell",
        topology=cell.topology,
        n=cell.n,
        algorithm=cell.algorithm,
        adversary=cell.variant,
    ):
        result = adversary.maximise(graph, algorithm, objective=query.objective)
    elapsed = time.perf_counter() - started
    certificate = result.certificate
    return {
        "certificate": certificate.as_dict() if certificate is not None else None,
        "index": cell.index,
        "topology": cell.topology,
        "n": cell.n,
        "graph_n": graph.n,
        "graph": graph.name,
        "algorithm": cell.algorithm,
        "adversary": cell.variant,
        "objective": query.objective,
        "value": result.value,
        "evaluations": result.evaluations,
        "exact": result.exact,
        "witness_ids": list(result.assignment.identifiers()),
        "cache": result.cache_stats.as_dict() if result.cache_stats else None,
        "seed": cell.seed,
        "wall_time_s": elapsed,
    }


def distribution_row(session: "Session", query: Query, cell: Cell, workers: int = 1) -> dict:
    """One exact ``distribution`` cell: the orbit-weighted enumeration, certified.

    Sampled cells take the batched path of :meth:`Session._sample_rows`.
    """
    graph = session.graph(cell.topology, cell.n, cell.graph_seed)
    algorithm = session.ball_algorithm(cell.algorithm, graph.n)
    started = time.perf_counter()
    with _obs_span("engine.dist_cell", topology=cell.topology, n=cell.n, method=cell.variant):
        exact = exact_round_distribution(
            graph, algorithm, max_nodes=query.exact_max_nodes, max_classes=query.max_classes
        )
    elapsed = time.perf_counter() - started
    return _dist_row(
        cell,
        graph,
        exact.distribution,
        elapsed,
        certificate=exact.certificate.as_dict(),
        kernel=exact.kernel,
    )


def _dist_row(
    cell: Cell,
    graph: Graph,
    distribution,
    elapsed: float,
    samples: Optional[int] = None,
    certificate: Optional[dict] = None,
    uncertainty: Optional[dict] = None,
    kernel: Optional[dict] = None,
) -> dict:
    """The row schema shared by exact and sampled distribution cells.

    The row embeds the full serialised
    :class:`~repro.dist.distribution.RoundDistribution` (key
    ``distribution``) next to the headline statistics of both measures;
    exact rows carry the certificate, sampled rows the standard errors.
    """
    summary = distribution.summary()
    return {
        "index": cell.index,
        "topology": cell.topology,
        "n": cell.n,
        "graph_n": graph.n,
        "graph": graph.name,
        "algorithm": cell.algorithm,
        "method": cell.variant,
        "exact": cell.variant == "exact",
        "seed": cell.seed,
        "samples": samples,
        "total_weight": distribution.total_weight,
        "average": summary["average"],
        "max": summary["max"],
        "uncertainty": uncertainty,
        "certificate": certificate,
        "kernel": kernel,
        "distribution": distribution.as_dict(),
        "wall_time_s": elapsed,
    }


def scale_row(session: "Session", query: Query, cell: Cell, workers: int = 1) -> dict:
    """One ``scale`` cell: sharded sampling on a streamed CSR topology.

    ``workers`` feeds the :class:`~repro.kernel.shard.ShardedKernelExecutor`
    inside the cell.  The row mirrors the sampled-distribution shape
    (``average`` / ``max`` estimate dicts, ``exact: False``) but carries no
    joint distribution: the scale path never materialises per-node radii.
    """
    csr = session.csr(cell.topology, cell.n, cell.graph_seed)
    algorithm = session.ball_algorithm(cell.algorithm, cell.n)
    executor = ShardedKernelExecutor(csr, algorithm, workers=workers)
    started = time.perf_counter()
    stats = executor.sample_measures(query.samples, seed=cell.seed)
    elapsed = time.perf_counter() - started
    folded = fold_scale_stats(stats, seed=cell.seed)
    nodes = csr.n * folded.samples
    return {
        "index": cell.index,
        "topology": cell.topology,
        "n": cell.n,
        "graph_n": csr.n,
        "graph_m": csr.m,
        "graph": csr.name,
        "algorithm": cell.algorithm,
        "samples": folded.samples,
        "seed": cell.seed,
        "csr_seed": cell.graph_seed,
        "average": folded.average.as_dict(),
        "max": folded.maximum.as_dict(),
        "uncertainty": {
            "average": folded.average.as_dict(),
            "max": folded.maximum.as_dict(),
        },
        "nodes_per_s": nodes / elapsed if elapsed > 0 else float("inf"),
        "exact": False,
        "kernel": executor.describe(),
        "wall_time_s": elapsed,
    }


#: Mode -> (row function, whether ``workers`` fans out *inside* each cell).
#: ``worst-case`` and ``scale`` run their cells in-process and hand the
#: workers to the portfolio adversary / the shard executor; the other modes
#: split their cells across the warm pool instead.
ROW_FUNCTIONS = {
    "simulate": (simulate_row, False),
    "worst-case": (search_row, True),
    "sweep": (search_row, False),
    "distribution": (distribution_row, False),
    "scale": (scale_row, True),
}


def worker_session() -> "Session":
    """The worker-global :class:`Session` of a pool process (or the parent).

    The warm pool keeps its workers alive across dispatches, so every task
    a worker runs reuses this session's graphs, compiled kernels and plans.
    """
    return worker_cache("api.session", "session", Session)


def run_cell_task(payload: tuple[Query, Cell]) -> dict:
    """Worker entry point: one cell's row, computed in the worker's session."""
    query, cell = payload
    row_function, _ = ROW_FUNCTIONS[query.mode]
    return row_function(worker_session(), query, cell)


def simulate_draws_task(payload: tuple) -> list:
    """Worker entry point: the radii of one sampled cell's new draws.

    The payload carries the cell, its budget, the draws already folded and
    the draw matrix (a shared-memory handle, viewed as the int64 array, or
    inline rows).  A vanished segment degrades to re-drawing the rows — the
    stream is a pure function of the cell's seed — so every path yields the
    same radii.
    """
    cell, samples, start, rows = payload
    session = worker_session()
    graph = session.graph(cell.topology, cell.n, cell.graph_seed)
    kernel = session.kernel(graph, session.ball_algorithm(cell.algorithm, graph.n))
    if isinstance(rows, ShmRef):
        try:
            rows = numpy_module().frombuffer(fetch_memoryview(rows), dtype="<i8").reshape(-1, graph.n)
        except LookupError:
            rows = draw_sample_rows(graph.n, samples, cell.seed, start=start)
    return simulate_many([BatchRequest(kernel, rows, pre_validated=True)])[0]


class Session:
    """Shared-infrastructure owner executing :class:`~repro.api.query.Query` objects.

    Parameters
    ----------
    workers:
        Optional override of every query's ``workers`` field.  ``None``
        (the default) respects the per-query setting.

    A session is cheap to create and safe to keep for a whole process; its
    caches only ever make repeated queries faster, never change their
    answers, and they are bounded (least-recently-used eviction at
    :data:`SESSION_MAX_GRAPHS` / :data:`SESSION_MAX_ALGORITHMS` /
    :data:`SESSION_MAX_RUNNERS` / :data:`SESSION_MAX_KERNELS` /
    :data:`SESSION_MAX_CSRS` entries), so
    memory stays flat even when a long-lived session streams arbitrarily
    many distinct instances — and a hot instance keeps its warmth through a
    sweep of cold ones.  The combined hit/miss/eviction counters surface on
    every result under ``cache["session"]``.  Sessions are not thread-safe.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._graphs = _LruCache(SESSION_MAX_GRAPHS)
        self._algorithms = _LruCache(SESSION_MAX_ALGORITHMS)
        self._runners = _LruCache(SESSION_MAX_RUNNERS)
        self._kernels = _LruCache(SESSION_MAX_KERNELS)
        self._csrs = _LruCache(SESSION_MAX_CSRS)
        #: Queries executed so far (diagnostic only).
        self.queries = 0

    # ------------------------------------------------------------------
    # shared infrastructure
    # ------------------------------------------------------------------
    def cache_info(self) -> dict:
        """Combined hit/miss/eviction counters of the session's object caches."""
        caches = (self._graphs, self._algorithms, self._runners, self._kernels, self._csrs)
        return {
            "hits": sum(cache.hits for cache in caches),
            "misses": sum(cache.misses for cache in caches),
            "evictions": sum(cache.evictions for cache in caches),
        }

    def _query_profile(self, root) -> Optional[dict]:
        """The ``profile`` block of one query — ``None`` while obs is off.

        ``root`` is the query's ``api.query`` span: the no-op singleton when
        instrumentation is disabled (in which case no profile is recorded),
        a finished :class:`~repro.obs.spans.Span` otherwise.  Publishes the
        session's cache counters into the metrics registry before taking
        the snapshot, so every profile carries them.
        """
        if not getattr(root, "enabled", False):
            return None
        info = self.cache_info()
        _metrics.set_gauge("api.session.cache_hits", info["hits"])
        _metrics.set_gauge("api.session.cache_misses", info["misses"])
        _metrics.set_gauge("api.session.cache_evictions", info["evictions"])
        _metrics.add("api.queries")
        return build_profile(root)

    def graph(self, topology: str, n: int, seed: int = 0) -> Graph:
        """A built topology, cached per ``(topology, n, seed)``.

        Frontier plans and automorphism groups live on the returned object,
        so reuse compounds across every later query touching it.  Topologies
        whose builders ignore the seed (cycle, path, grid, complete) share
        one instance across seeds; random families key by seed.
        """
        key = (topology, n, 0 if topology in DETERMINISTIC_TOPOLOGIES else seed)
        graph = self._graphs.get(key)
        if graph is None:
            graph = build_topology(topology, n, seed)
            self._graphs.put(key, graph)
        return graph

    def ball_algorithm(self, name: str, n: int):
        """A registered algorithm instance (ball-compiled), cached per ``(name, n)``."""
        key = (name, n)
        algorithm = self._algorithms.get(key)
        if algorithm is None:
            algorithm = make_ball_algorithm(name, n)
            self._algorithms.put(key, algorithm)
        return algorithm

    def runner(self, graph: Graph, algorithm) -> FrontierRunner:
        """The session's engine runner for ``(graph, algorithm)``, with its cache.

        Cached per object-identity pair — sound because every cached entry
        keeps its graph and algorithm alive, so a key can only collide with
        the identical objects.
        """
        key = (id(graph), id(algorithm))
        entry = self._runners.get(key)
        if entry is None:
            runner = FrontierRunner(
                graph,
                algorithm,
                cache=DecisionCache(algorithm, max_entries=DECISION_CACHE_MAX_ENTRIES),
            )
            entry = (graph, algorithm, runner)
            self._runners.put(key, entry)
        return entry[2]

    def kernel(self, graph: Graph, algorithm) -> CompiledInstance:
        """The session's compiled batch instance for ``(graph, algorithm)``.

        Cached next to the engine runners under the same object-identity
        keying; distribution queries stream their sample chunks through it,
        so repeated queries on one instance skip the compilation too.
        """
        key = (id(graph), id(algorithm))
        entry = self._kernels.get(key)
        if entry is None:
            instance = compile_instance(graph, algorithm, validate=False)
            entry = (graph, algorithm, instance)
            self._kernels.put(key, entry)
        return entry[2]

    def csr(self, topology: str, n: int, seed: int = 0) -> CSRTopology:
        """A streamed CSR topology, cached per ``(topology, n, seed)``.

        The scale-mode sibling of :meth:`graph`: deterministic stream
        families (cycle) share one instance across seeds.  The cache is
        small (:data:`SESSION_MAX_CSRS`) because each entry can be tens of
        megabytes at n = 10^6.
        """
        key = (topology, n, 0 if topology in DETERMINISTIC_TOPOLOGIES else seed)
        csr = self._csrs.get(key)
        if csr is None:
            csr = build_csr(topology, n, seed)
            self._csrs.put(key, csr)
        return csr

    def trace(self, graph: Graph, ids: IdentifierAssignment, algorithm) -> ExecutionTrace:
        """Run one algorithm on one explicit instance through the session.

        The object-level sibling of :meth:`simulate` for callers that hold a
        :class:`Graph` already (experiments, examples): same engine path,
        same caches, no declarative grid.
        """
        return self.runner(graph, algorithm).run(ids)

    def report(
        self, graph: Graph, ids: IdentifierAssignment, algorithm
    ) -> ComplexityReport:
        """Both measures of one explicit instance (a cached-session run)."""
        return ComplexityReport.from_trace(self.trace(graph, ids, algorithm), graph, algorithm)

    def _workers_for(self, query: Query) -> int:
        return self.workers if self.workers is not None else query.workers

    # ------------------------------------------------------------------
    # the executor
    # ------------------------------------------------------------------
    def run(
        self, query: Optional[Query] = None, folds: Optional[dict] = None, **kwargs
    ) -> Result:
        """Execute a query in whatever mode it declares — the one executor.

        Expands the query into :class:`Cell` objects and computes one row
        per cell with the mode's row function (:data:`ROW_FUNCTIONS`):
        in-process on this session's cached objects, or split across the
        warm pool through :func:`run_cell_task`.  Sampled distribution
        cells go through the batched :meth:`_sample_rows` path.  Rows come
        back in cell order, identical at any worker count.

        ``folds`` (a dict of cell key -> :class:`DistributionFold`) carries
        sampled estimates across runs: a cell whose key is present continues
        that fold, drawing only past its count, and every sampled cell's
        fold is bound in the dict afterwards.  The service resumes larger
        budgets and streams progress this way.
        """
        query = _coerce(query, kwargs)
        self.queries += 1
        cells = query_cells(query)
        workers = self._workers_for(query)
        with _obs_span("api.query", mode=query.mode, cells=len(cells)) as root:
            rows = []
            if query.mode == "distribution":
                sampled = [cell for cell in cells if cell.variant == "sample"]
                cells = [cell for cell in cells if cell.variant != "sample"]
                rows = self._sample_rows(query, sampled, workers, {} if folds is None else folds)
            row_function, inside = ROW_FUNCTIONS[query.mode]
            if workers > 1 and len(cells) > 1 and not inside:
                rows += BatchExecutor(workers).map(
                    run_cell_task, [(query, cell) for cell in cells]
                )
            else:
                inner = workers if inside else 1
                rows += [row_function(self, query, cell, inner) for cell in cells]
            rows.sort(key=lambda row: row["index"])
        return Result.from_rows(
            query.mode,
            query.to_dict(),
            rows,
            session_cache=self.cache_info(),
            profile=self._query_profile(root),
        )

    def _sample_rows(
        self, query: Query, cells: Sequence[Cell], workers: int, folds: dict
    ) -> list[dict]:
        """Sampled distribution cells: draw, simulate as one batch, fold.

        Each cell draws only what its fold has not seen
        (:func:`~repro.dist.sampling.draw_sample_rows` from the fold's
        count, one ``dist.draw`` span; an int64 matrix on numpy).  All
        cells' draws go through one
        :func:`~repro.kernel.compile.simulate_many` submission, one request
        per cell (a query repeats no axis value, so no two cells share a
        compiled instance) — or, with ``workers > 1``, fan out per cell over
        the warm pool (each draw matrix published into shared memory,
        affinity-keyed by instance).  The radii fold in draw order
        (``fold_block``), so rows are bit-identical at any worker count and
        to one uninterrupted run of the whole budget.  A cell's
        ``wall_time_s`` is its fold time plus its row-count share of the
        shared kernel call.
        """
        prepared = []
        for cell in cells:
            graph = self.graph(cell.topology, cell.n, cell.graph_seed)
            kernel = self.kernel(graph, self.ball_algorithm(cell.algorithm, graph.n))
            fold = folds.get(cell.key)
            if fold is None:
                fold = folds[cell.key] = DistributionFold(graph.n, cell.seed)
            elif (fold.n, fold.seed) != (graph.n, cell.seed):
                raise AnalysisError(
                    f"estimator state of cell {cell.key} was drawn at n={fold.n} under "
                    f"seed {fold.seed}; it cannot continue at n={graph.n} under seed "
                    f"{cell.seed} (the draw streams differ)"
                )
            with _obs_span("dist.draw", n=graph.n, rows=query.samples - fold.count):
                draws = draw_sample_rows(graph.n, query.samples, cell.seed, start=fold.count)
            prepared.append((cell, graph, kernel, fold, draws))
        if not prepared:
            return []
        started = time.perf_counter()
        executor = BatchExecutor(workers)
        if len(prepared) > 1 and executor.pool is not None:
            radii_blocks = _simulate_pooled(executor, query.samples, prepared)
        else:
            radii_blocks = simulate_many(
                [BatchRequest(kernel, draws, pre_validated=True) for _, _, kernel, _, draws in prepared]
            )
        shared = time.perf_counter() - started
        total = sum(len(draws) for *_, draws in prepared) or 1
        rows = []
        for (cell, graph, kernel, fold, draws), radii in zip(prepared, radii_blocks):
            started = time.perf_counter()
            with _obs_span("engine.dist_cell", topology=cell.topology, n=cell.n, method=cell.variant):
                fold.fold_block(radii)
                sampled = fold.result()
            elapsed = time.perf_counter() - started + shared * len(draws) / total
            uncertainty = {
                "average": sampled.average.as_dict(),
                "maximum": sampled.maximum.as_dict(),
            }
            rows.append(
                _dist_row(
                    cell,
                    graph,
                    sampled.distribution,
                    elapsed,
                    samples=query.samples,
                    uncertainty=uncertainty,
                    kernel=kernel.describe(),
                )
            )
        return rows

    # ------------------------------------------------------------------
    # the mode methods: Session.run with the mode checked
    # ------------------------------------------------------------------
    def simulate(self, query: Optional[Query] = None, **kwargs) -> Result:
        """Single runs over the grid: both measures of one assignment per cell."""
        return self.run(_coerce(query, kwargs, mode="simulate"))

    def worst_case(self, query: Optional[Query] = None, **kwargs) -> Result:
        """Worst case over identifier assignments; ``workers`` feeds the portfolio."""
        return self.run(_coerce(query, kwargs, mode="worst-case"))

    def sweep(self, query: Optional[Query] = None, **kwargs) -> Result:
        """A grid of adversarial searches; ``workers`` splits the cells."""
        return self.run(_coerce(query, kwargs, mode="sweep"))

    def distribution(self, query: Optional[Query] = None, **kwargs) -> Result:
        """Exact and/or sampled measure distributions over identifier assignments."""
        return self.run(_coerce(query, kwargs, mode="distribution"))

    def scale(self, query: Optional[Query] = None, **kwargs) -> Result:
        """Sharded sampling on streamed CSR topologies; ``workers`` feeds the shards."""
        return self.run(_coerce(query, kwargs, mode="scale"))


def _simulate_pooled(executor: BatchExecutor, samples: int, prepared: Sequence[tuple]) -> list:
    """Fan per-cell draw matrices out over the warm pool; radii in cell order.

    Each numpy matrix is published once into shared memory and shipped as a
    handle (inline rows when shared memory is unavailable, and for the
    stdlib backend's tuples); cells of the
    same ``(topology, n, graph_seed, algorithm)`` instance share an
    affinity key, so the worker that compiled that instance serves them all.
    """
    pool = executor.pool
    payloads, keys, pinned = [], [], []
    for cell, _, _, fold, draws in prepared:
        ref = pool.publish(draws) if hasattr(draws, "ndim") else None
        if ref is not None:
            pinned.append(ref)
        payloads.append((cell, samples, fold.count, draws if ref is None else ref))
        keys.append((cell.topology, cell.n, cell.graph_seed, cell.algorithm))
    try:
        return executor.map(simulate_draws_task, payloads, keys=keys)
    finally:
        for ref in pinned:
            pool.release(ref)


def _coerce(query: Optional[Query], kwargs: dict, mode: Optional[str] = None) -> Query:
    """Normalise the ``(query, **kwargs)`` calling convention of every mode.

    An explicit :class:`Query` whose declared mode contradicts the method
    being called is rejected rather than silently rewritten — the caller
    either meant :meth:`Session.run` (which dispatches on the query's own
    mode) or built the wrong query.
    """
    if query is None:
        if mode is not None:
            kwargs.setdefault("mode", mode)
        return Query(**kwargs)
    if not isinstance(query, Query):
        raise ConfigurationError(
            f"expected a Query or keyword arguments, got {type(query).__name__}"
        )
    changes = dict(kwargs)
    effective_mode = changes.get("mode", query.mode)
    if mode is not None and effective_mode != mode:
        raise ConfigurationError(
            f"query declares mode {effective_mode!r} but the session's "
            f"{mode.replace('-', '_')}() method was called; use Session.run() "
            f"to dispatch on the query's mode, or build the query with "
            f"mode={mode!r}"
        )
    return query.with_changes(**changes) if changes else query


#: The lazily created process-wide session behind :func:`query`.
_default_session: Optional[Session] = None


def default_session() -> Session:
    """The shared module-level session (created on first use)."""
    global _default_session
    if _default_session is None:
        _default_session = Session()
    return _default_session


def reset_default_session() -> None:
    """Drop the shared session (and all its cached graphs and runners)."""
    global _default_session
    _default_session = None


def query(spec=None, **kwargs) -> Result:
    """Run one query on the default session — the library's one-line front door.

    ``spec`` may be a :class:`~repro.api.query.Query`, a mode name (with the
    remaining fields as keyword arguments), or omitted entirely::

        import repro

        repro.query(mode="simulate", topologies="cycle", sizes=64)
        repro.query("worst-case", topologies="cycle", sizes=10,
                    adversaries="branch-and-bound", measure="sum")
        repro.query(repro.Query.load("examples/spec.json"))
    """
    if spec is None:
        built = Query(**kwargs)
    elif isinstance(spec, str):
        built = Query(mode=spec, **kwargs)
    elif isinstance(spec, Query):
        built = spec.with_changes(**kwargs) if kwargs else spec
    else:
        raise ConfigurationError(
            f"repro.query expects a Query, a mode name or keyword arguments; "
            f"got {type(spec).__name__}"
        )
    return default_session().run(built)
