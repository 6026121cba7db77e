"""Adversaries over identifier assignments.

Both measures in the paper are worst cases *over the identifier assignment*.
On small instances the maximum can be computed exhaustively (all ``n!``
permutations); on larger instances we fall back to randomised search,
whose result is a certified **lower bound** on the true worst case (the
witness assignment is returned so callers can re-verify it).

The adversaries are deliberately algorithm-agnostic: they only observe the
scalar objective of a full run, never the algorithm's internals.

The sampling adversaries (:class:`RandomSearchAdversary`,
:class:`RotationAdversary`) score their candidate assignments as batch-kernel
cohorts (:func:`~repro.kernel.compile.simulate_many`) and keep the first
strict maximum; only the witness then runs through one engine session — a
:class:`~repro.engine.frontier.FrontierRunner` with a
:class:`~repro.engine.cache.DecisionCache` — for its full trace (outputs
included) and the :attr:`AdversaryResult.cache_stats` of that run.
:class:`ExhaustiveAdversary` is the ``n!`` reference and runs every
permutation through one such session.

The symmetry-pruned exact search and the swap-strategy portfolio of
:mod:`repro.search` implement the same :class:`Adversary` interface and are
re-exported here (lazily, to keep the import graph acyclic) as
:class:`PrunedExhaustiveAdversary` and :class:`PortfolioAdversary`.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.algorithm import BallAlgorithm
from repro.engine.cache import DECISION_CACHE_MAX_ENTRIES, CacheStats, DecisionCache
from repro.engine.frontier import FrontierRunner
from repro.errors import AnalysisError, ConfigurationError
from repro.kernel.compile import (
    DEFAULT_BATCH_ROWS,
    BatchRequest,
    compile_instance,
    simulate_many,
)
from repro.model.graph import Graph
from repro.model.identifiers import IdentifierAssignment, identity_assignment, random_assignment
from repro.model.trace import ExecutionTrace
from repro.obs.spans import span as _obs_span
from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import require_positive_int

#: Objectives an adversary can maximise.
OBJECTIVES = ("average", "max", "sum")


def validate_objective(objective: str) -> None:
    """Reject unknown objectives eagerly, before any simulation work.

    >>> validate_objective("average")
    >>> validate_objective("median")
    Traceback (most recent call last):
        ...
    repro.errors.AnalysisError: unknown objective 'median'; expected one of ('average', 'max', 'sum')
    """
    if objective not in OBJECTIVES:
        raise AnalysisError(
            f"unknown objective {objective!r}; expected one of {OBJECTIVES}"
        )


def trace_objective(trace: ExecutionTrace, objective: str) -> float:
    """Scalar value of one execution trace under the chosen objective.

    >>> from repro.algorithms.largest_id import LargestIdAlgorithm
    >>> from repro.core.runner import run_ball_algorithm
    >>> from repro.model.identifiers import identity_assignment
    >>> from repro.topology.cycle import cycle_graph
    >>> trace = run_ball_algorithm(cycle_graph(4), identity_assignment(4), LargestIdAlgorithm())
    >>> trace_objective(trace, "max") == float(trace.max_radius)
    True
    >>> trace_objective(trace, "sum") == trace_objective(trace, "average") * 4
    True
    """
    if objective == "average":
        return trace.average_radius
    if objective == "max":
        return float(trace.max_radius)
    if objective == "sum":
        return float(trace.sum_radius)
    raise AnalysisError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")


@dataclass(frozen=True)
class AdversaryResult:
    """Outcome of an adversarial search.

    ``value`` is the objective achieved by ``assignment`` (whose full trace
    is included), ``evaluations`` counts how many assignments were tried and
    ``exact`` records whether the search provably covered the whole space.
    ``cache_stats``, when present, summarises the decision-cache hit rate of
    the engine session that powered the search.  The second-generation
    adversaries (:mod:`repro.search`) additionally attach a ``certificate``
    — a :class:`~repro.search.branch_bound.SearchCertificate` for exact
    searches, a :class:`~repro.search.portfolio.PortfolioCertificate` for
    heuristic ones — so the claim behind ``exact`` is auditable.
    """

    assignment: IdentifierAssignment
    trace: ExecutionTrace
    value: float
    objective: str
    evaluations: int
    exact: bool
    cache_stats: Optional[CacheStats] = None
    certificate: Optional[object] = None


def witness_trace(
    graph: Graph, algorithm: BallAlgorithm, ids: IdentifierAssignment
) -> tuple[ExecutionTrace, CacheStats]:
    """Full trace of a search's witness and the cache stats of that one run.

    The kernel answers radii only; the witness's outputs come from one
    engine session run (the ``search.witness`` span).
    """
    with _obs_span("search.witness", n=graph.n):
        cache = DecisionCache(algorithm, max_entries=DECISION_CACHE_MAX_ENTRIES)
        trace = FrontierRunner(graph, algorithm, cache=cache).run(ids)
    return trace, cache.stats


def _best_of(
    graph: Graph,
    algorithm: BallAlgorithm,
    objective: str,
    candidates: Iterable[IdentifierAssignment],
) -> AdversaryResult:
    """Score ``candidates`` in kernel cohorts; the first strict maximum wins.

    Candidates are drawn :data:`~repro.kernel.compile.DEFAULT_BATCH_ROWS` at
    a time, so memory stays one cohort of rows whatever their number.
    """
    if graph.n == 0:
        raise AnalysisError("cannot run an adversary on an empty graph")
    kernel = compile_instance(graph, algorithm)
    score = max if objective == "max" else sum
    candidates = iter(candidates)
    best: Optional[IdentifierAssignment] = None
    best_score = -1
    evaluations = 0
    while cohort := list(itertools.islice(candidates, DEFAULT_BATCH_ROWS)):
        evaluations += len(cohort)
        (radii_rows,) = simulate_many([BatchRequest(kernel, cohort)])
        for ids, radii in zip(cohort, radii_rows):
            value = score(radii)
            if value > best_score:
                best, best_score = ids, value
    assert best is not None  # at least one candidate
    trace, cache_stats = witness_trace(graph, algorithm, best)
    return AdversaryResult(
        assignment=best,
        trace=trace,
        value=trace_objective(trace, objective),
        objective=objective,
        evaluations=evaluations,
        exact=False,
        cache_stats=cache_stats,
    )


class Adversary(abc.ABC):
    """Base class: search identifier assignments maximising an objective."""

    @abc.abstractmethod
    def maximise(
        self, graph: Graph, algorithm: BallAlgorithm, objective: str = "average"
    ) -> AdversaryResult:
        """Return the best assignment found for the given objective."""


class ExhaustiveAdversary(Adversary):
    """Try every permutation of ``0..n-1`` — exact, but only feasible for tiny n.

    ``max_nodes`` protects against accidentally launching a factorial search
    on a large graph.  This is the reference implementation that the
    symmetry-pruned search of :mod:`repro.search` is verified against;
    for anything beyond toy sizes prefer
    :class:`~repro.search.adversaries.PrunedExhaustiveAdversary`, which
    returns the same certified optimum while enumerating only one
    assignment per automorphism class.

    >>> from repro.algorithms.largest_id import LargestIdAlgorithm
    >>> from repro.topology.cycle import cycle_graph
    >>> result = ExhaustiveAdversary().maximise(
    ...     cycle_graph(4), LargestIdAlgorithm(), objective="max"
    ... )
    >>> result.exact, result.evaluations
    (True, 24)
    >>> result.value == float(result.trace.max_radius)
    True
    """

    def __init__(self, max_nodes: int = 9) -> None:
        require_positive_int(max_nodes, "max_nodes")
        self.max_nodes = max_nodes

    def maximise(
        self, graph: Graph, algorithm: BallAlgorithm, objective: str = "average"
    ) -> AdversaryResult:
        validate_objective(objective)
        if graph.n > self.max_nodes:
            raise ConfigurationError(
                f"ExhaustiveAdversary is limited to {self.max_nodes} nodes "
                f"(got {graph.n}); use PrunedExhaustiveAdversary for an exact "
                f"search or PortfolioAdversary for a lower bound"
            )
        cache = DecisionCache(algorithm, max_entries=DECISION_CACHE_MAX_ENTRIES)
        runner = FrontierRunner(graph, algorithm, cache=cache)
        best: AdversaryResult | None = None
        evaluations = 0
        for permutation in itertools.permutations(range(graph.n)):
            ids = IdentifierAssignment(permutation)
            trace = runner.run(ids)
            value = trace_objective(trace, objective)
            evaluations += 1
            if best is None or value > best.value:
                best = AdversaryResult(
                    assignment=ids,
                    trace=trace,
                    value=value,
                    objective=objective,
                    evaluations=evaluations,
                    exact=True,
                )
        if best is None:
            raise AnalysisError("cannot run an adversary on an empty graph")
        return AdversaryResult(
            assignment=best.assignment,
            trace=best.trace,
            value=best.value,
            objective=objective,
            evaluations=evaluations,
            exact=True,
            cache_stats=cache.stats,
        )


class RandomSearchAdversary(Adversary):
    """Sample ``samples`` uniformly random assignments and keep the best."""

    def __init__(self, samples: int = 64, seed: SeedLike = None) -> None:
        require_positive_int(samples, "samples")
        self.samples = samples
        self.seed = seed

    def maximise(
        self, graph: Graph, algorithm: BallAlgorithm, objective: str = "average"
    ) -> AdversaryResult:
        validate_objective(objective)
        rng = make_rng(self.seed)
        draws = (
            random_assignment(graph.n, seed=rng.getrandbits(64))
            for _ in range(self.samples)
        )
        return _best_of(graph, algorithm, objective, draws)


class RotationAdversary(Adversary):
    """Evaluate all cyclic rotations of a base assignment.

    On vertex-transitive topologies such as the cycle, rotating a fixed
    identifier pattern explores the interesting structural variations far
    more cheaply than permuting identifiers at random; it is also the
    natural adversary when the base pattern is itself meaningful (sorted
    identifiers, adversarial blocks, ...).
    """

    def __init__(self, base: IdentifierAssignment | None = None) -> None:
        self.base = base

    def maximise(
        self, graph: Graph, algorithm: BallAlgorithm, objective: str = "average"
    ) -> AdversaryResult:
        validate_objective(objective)
        base = self.base if self.base is not None else identity_assignment(graph.n)
        if base.n != graph.n:
            raise ConfigurationError(
                f"base assignment covers {base.n} positions but graph has {graph.n}"
            )
        rotations = (base.rotated(shift) for shift in range(graph.n))
        return _best_of(graph, algorithm, objective, rotations)


#: Second-generation adversaries re-exported from :mod:`repro.search`.
_SEARCH_ADVERSARIES = ("PrunedExhaustiveAdversary", "PortfolioAdversary")


def __getattr__(name: str):
    """Lazily resolve the :mod:`repro.search` adversaries (PEP 562).

    ``repro.search`` imports this module for the base classes, so importing
    it eagerly here would create a cycle; deferring the import keeps
    ``from repro.core.adversary import PrunedExhaustiveAdversary`` working
    without one.
    """
    if name in _SEARCH_ADVERSARIES:
        import repro.search.adversaries as _search_adversaries

        return getattr(_search_adversaries, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
