"""repro — Average complexity for the LOCAL model.

A Python reproduction of Feuilloley, *Brief Announcement: Average Complexity
for the LOCAL Model* (PODC 2015).  The library provides:

* a LOCAL-model simulator in both of the paper's formulations (ball views
  and synchronous message passing), with per-node radius accounting;
* the paper's algorithms (largest-ID on a cycle, Cole–Vishkin 3-colouring)
  plus greedy baselines;
* the *average* and *classic* complexity measures, worst-case over
  identifier assignments, with exhaustive and heuristic adversaries;
* the theory toolkit behind the paper's two results (the segment recurrence
  and OEIS A000788; Linial's threshold, the regularity lemmas and the slice
  construction of Theorem 1); and
* the applications sketched in the introduction (dynamic-network repair and
  parallel simulation), an experiment harness (E1-E12) and benchmarks; and
* a high-throughput execution engine (:mod:`repro.engine`) — incremental
  frontier ball growth, memoised decisions and multiprocessing fan-out —
  that powers all of the above; and
* a second-generation adversary search (:mod:`repro.search`) — graph
  automorphism pruning, exact canonical enumeration with certificates,
  kernel-scored swap strategies in a parallel portfolio — for the
  outer worst-case-over-assignments maximisation; and
* a distributional measure layer (:mod:`repro.dist`) — the exact joint
  distribution of both measures over all ``n!`` identifier assignments
  (orbit-weighted canonical enumeration, ``n!/|Aut|`` simulations) and
  seeded streaming Monte-Carlo estimators with standard errors; and
* the batch kernel (:mod:`repro.kernel`) — compiled instances that flatten
  one ``(graph, algorithm)`` pair into integer arrays and evaluate whole
  matrices of identifier assignments per call, with a numpy fast path and
  a pure-stdlib fallback (``REPRO_KERNEL={numpy,python}``); and
* the unified query API (:mod:`repro.api`) — one declarative, validated
  :class:`Query` over all five answer modes (simulate, worst-case,
  distribution, sweep, scale), executed by a cache-owning :class:`Session` and
  answered with a single versioned :class:`Result` type; and
* the cross-cutting instrumentation subsystem (:mod:`repro.obs`) —
  hierarchical spans, a process-wide metrics registry, per-query
  ``profile`` blocks and Chrome trace export, switched by
  ``REPRO_OBS={on,off}`` and near-free while off; and
* the query service (:mod:`repro.service`) — ``repro serve``: a stdlib
  HTTP front door over a persistent content-addressed result store
  (compute once, serve forever), a multi-process worker pool, and
  resumable sampling estimates whose confidence intervals tighten across
  requests.

Quick start::

    import repro

    result = repro.query(mode="simulate", topologies="cycle", sizes=64, seed=1)
    print(result.measures)           # {'classic': ..., 'average': ..., 'sum': ...}

    worst = repro.query("worst-case", topologies="cycle", sizes=10,
                        adversaries="branch-and-bound", measure="average")
    print(worst.exact, worst.measures)
"""

from repro.algorithms import (
    BallSimulationOfRounds,
    ColeVishkinRing,
    FullGatherRoundAlgorithm,
    GreedyColoringByID,
    GreedyMISByID,
    LargestIdAlgorithm,
    make_algorithm,
)
from repro.core import (
    BallAlgorithm,
    ExhaustiveAdversary,
    RandomSearchAdversary,
    certify,
    fit_growth,
    run_ball_algorithm,
)
from repro.dist import (
    DiscreteDistribution,
    RoundDistribution,
    exact_round_distribution,
    sample_round_distribution,
)
from repro.engine import (
    BatchExecutor,
    DecisionCache,
    FrontierRunner,
)
from repro.core.measures import Measure, exact_worst_case, get_measure
from repro.errors import (
    AlgorithmError,
    AnalysisError,
    CertificationError,
    ConfigurationError,
    ExperimentError,
    IdentifierError,
    ReproError,
    TopologyError,
)
from repro.model import (
    BallView,
    ExecutionTrace,
    Graph,
    IdentifierAssignment,
    RoundAlgorithm,
    extract_ball,
    random_assignment,
    run_round_algorithm,
)
from repro.search import (
    PortfolioAdversary,
    PrunedExhaustiveAdversary,
    SwapEvaluator,
    automorphism_group,
)
from repro.topology import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
)

# The unified query API sits on top of every other layer, so it is imported
# last; `repro.query(...)` is the library's declarative front door.
from repro.api import (
    ID_FAMILIES,
    Query,
    QueryBuilder,
    Result,
    Session,
    default_session,
)
from repro.api.session import query

# The query service sits on top of the API (store-backed `repro serve`).
from repro.service import QueryService, ResultStore

__version__ = "18.0.0"

__all__ = [
    "AlgorithmError",
    "AnalysisError",
    "BallAlgorithm",
    "BallSimulationOfRounds",
    "BallView",
    "BatchExecutor",
    "CertificationError",
    "ColeVishkinRing",
    "ConfigurationError",
    "DecisionCache",
    "DiscreteDistribution",
    "ExecutionTrace",
    "ExhaustiveAdversary",
    "ExperimentError",
    "FrontierRunner",
    "FullGatherRoundAlgorithm",
    "Graph",
    "GreedyColoringByID",
    "GreedyMISByID",
    "ID_FAMILIES",
    "IdentifierAssignment",
    "IdentifierError",
    "LargestIdAlgorithm",
    "Measure",
    "PortfolioAdversary",
    "PrunedExhaustiveAdversary",
    "Query",
    "QueryBuilder",
    "QueryService",
    "RandomSearchAdversary",
    "ReproError",
    "Result",
    "ResultStore",
    "RoundAlgorithm",
    "RoundDistribution",
    "Session",
    "SwapEvaluator",
    "TopologyError",
    "__version__",
    "automorphism_group",
    "certify",
    "complete_graph",
    "cycle_graph",
    "default_session",
    "exact_round_distribution",
    "exact_worst_case",
    "extract_ball",
    "fit_growth",
    "get_measure",
    "grid_graph",
    "make_algorithm",
    "path_graph",
    "query",
    "random_assignment",
    "run_ball_algorithm",
    "run_round_algorithm",
    "sample_round_distribution",
]
