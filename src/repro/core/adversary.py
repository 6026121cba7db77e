"""Adversaries over identifier assignments.

Both measures in the paper are worst cases *over the identifier assignment*.
On small instances the maximum can be computed exhaustively (all ``n!``
permutations); on larger instances we fall back to randomised search and
hill climbing, whose result is a certified **lower bound** on the true worst
case (the witness assignment is returned so callers can re-verify it).

The adversaries are deliberately algorithm-agnostic: they only observe the
scalar objective of a full run, never the algorithm's internals.

Every search evaluates thousands of assignments of the *same* graph with the
*same* algorithm, so all adversaries share one engine session per
:meth:`Adversary.maximise` call — a
:class:`~repro.engine.frontier.FrontierRunner` with a
:class:`~repro.engine.cache.DecisionCache` — and structurally repeated balls
skip the simulation entirely.  The cache statistics of the search are
reported on :attr:`AdversaryResult.cache_stats`.

The classes in this module are the first-generation (reference) searches.
The second-generation subsystem in :mod:`repro.search` — symmetry-pruned
canonical enumeration, incremental swap evaluation, a parallel strategy
portfolio — implements the same :class:`Adversary` interface and is
re-exported here (lazily, to keep the import graph acyclic) as
:class:`PrunedExhaustiveAdversary`, :class:`BranchAndBoundAdversary` and
:class:`PortfolioAdversary`.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass
from typing import Optional

from repro.core.algorithm import BallAlgorithm
from repro.engine.cache import CacheStats, DecisionCache
from repro.engine.frontier import FrontierRunner
from repro.errors import AnalysisError, ConfigurationError
from repro.model.graph import Graph
from repro.model.identifiers import IdentifierAssignment, identity_assignment, random_assignment
from repro.model.trace import ExecutionTrace
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


#: Memory bound for the per-search decision caches: long searches on graphs
#: with mostly-distinct balls would otherwise grow the table linearly with
#: the number of evaluations.
SESSION_CACHE_MAX_ENTRIES = 1 << 18


class _SessionEvaluator:
    """One engine session (runner + decision cache) for a whole search."""

    def __init__(self, graph: Graph, algorithm: BallAlgorithm, objective: str) -> None:
        self.cache = DecisionCache(algorithm, max_entries=SESSION_CACHE_MAX_ENTRIES)
        self.runner = FrontierRunner(graph, algorithm, cache=self.cache)
        self.objective = objective

    def __call__(self, ids: IdentifierAssignment) -> tuple[ExecutionTrace, float]:
        trace = self.runner.run(ids)
        return trace, trace_objective(trace, self.objective)

    @property
    def cache_stats(self) -> CacheStats:
        return self.cache.stats


class Adversary(abc.ABC):
    """Base class: search identifier assignments maximising an objective."""

    @abc.abstractmethod
    def maximise(
        self, graph: Graph, algorithm: BallAlgorithm, objective: str = "average"
    ) -> AdversaryResult:
        """Return the best assignment found for the given objective."""

    @staticmethod
    def _evaluate(
        graph: Graph, ids: IdentifierAssignment, algorithm: BallAlgorithm, objective: str
    ) -> tuple[ExecutionTrace, float]:
        """One-shot evaluation (compatibility path; searches use a session)."""
        from repro.core.runner import run_ball_algorithm

        trace = run_ball_algorithm(graph, ids, algorithm)
        return trace, trace_objective(trace, objective)


class ExhaustiveAdversary(Adversary):
    """Try every permutation of ``0..n-1`` — exact, but only feasible for tiny n.

    ``max_nodes`` protects against accidentally launching a factorial search
    on a large graph.  This is the reference implementation that the
    symmetry-pruned searches of :mod:`repro.search` are verified against;
    for anything beyond toy sizes prefer
    :class:`~repro.search.adversaries.BranchAndBoundAdversary`, which
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
                f"(got {graph.n}); use RandomSearchAdversary or LocalSearchAdversary"
            )
        evaluate = _SessionEvaluator(graph, algorithm, objective)
        best: AdversaryResult | None = None
        evaluations = 0
        for permutation in itertools.permutations(range(graph.n)):
            ids = IdentifierAssignment(permutation)
            trace, value = evaluate(ids)
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
            cache_stats=evaluate.cache_stats,
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
        evaluate = _SessionEvaluator(graph, algorithm, objective)
        best: AdversaryResult | None = None
        for index in range(self.samples):
            ids = random_assignment(graph.n, seed=rng.getrandbits(64))
            trace, value = evaluate(ids)
            if best is None or value > best.value:
                best = AdversaryResult(
                    assignment=ids,
                    trace=trace,
                    value=value,
                    objective=objective,
                    evaluations=index + 1,
                    exact=False,
                )
        assert best is not None  # samples >= 1
        return AdversaryResult(
            assignment=best.assignment,
            trace=best.trace,
            value=best.value,
            objective=objective,
            evaluations=self.samples,
            exact=False,
            cache_stats=evaluate.cache_stats,
        )


class LocalSearchAdversary(Adversary):
    """Hill climbing over pairwise identifier swaps, with random restarts.

    Each restart begins from a random assignment and repeatedly applies the
    best improving swap among a random sample of position pairs; the search
    stops when no sampled swap improves the objective.

    Swaps move only two identifiers, so consecutive candidates share almost
    every ball — the access pattern on which the shared decision cache pays
    off the most.
    """

    def __init__(
        self,
        restarts: int = 4,
        swaps_per_step: int = 32,
        max_steps: int = 64,
        seed: SeedLike = None,
    ) -> None:
        require_positive_int(restarts, "restarts")
        require_positive_int(swaps_per_step, "swaps_per_step")
        require_positive_int(max_steps, "max_steps")
        self.restarts = restarts
        self.swaps_per_step = swaps_per_step
        self.max_steps = max_steps
        self.seed = seed

    def maximise(
        self, graph: Graph, algorithm: BallAlgorithm, objective: str = "average"
    ) -> AdversaryResult:
        validate_objective(objective)
        rng = make_rng(self.seed)
        evaluate = _SessionEvaluator(graph, algorithm, objective)
        best: AdversaryResult | None = None
        evaluations = 0
        for _ in range(self.restarts):
            current = random_assignment(graph.n, seed=rng.getrandbits(64))
            current_trace, current_value = evaluate(current)
            evaluations += 1
            for _ in range(self.max_steps):
                improved = False
                for _ in range(self.swaps_per_step):
                    a, b = rng.sample(range(graph.n), 2) if graph.n > 1 else (0, 0)
                    candidate = current.with_swap(a, b)
                    trace, value = evaluate(candidate)
                    evaluations += 1
                    if value > current_value:
                        current, current_trace, current_value = candidate, trace, value
                        improved = True
                if not improved:
                    break
            if best is None or current_value > best.value:
                best = AdversaryResult(
                    assignment=current,
                    trace=current_trace,
                    value=current_value,
                    objective=objective,
                    evaluations=evaluations,
                    exact=False,
                )
        assert best is not None  # restarts >= 1
        return AdversaryResult(
            assignment=best.assignment,
            trace=best.trace,
            value=best.value,
            objective=objective,
            evaluations=evaluations,
            exact=False,
            cache_stats=evaluate.cache_stats,
        )


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
        evaluate = _SessionEvaluator(graph, algorithm, objective)
        best: AdversaryResult | None = None
        for shift in range(graph.n):
            ids = base.rotated(shift)
            trace, value = evaluate(ids)
            if best is None or value > best.value:
                best = AdversaryResult(
                    assignment=ids,
                    trace=trace,
                    value=value,
                    objective=objective,
                    evaluations=shift + 1,
                    exact=False,
                )
        if best is None:
            raise AnalysisError("cannot run an adversary on an empty graph")
        return AdversaryResult(
            assignment=best.assignment,
            trace=best.trace,
            value=best.value,
            objective=objective,
            evaluations=graph.n,
            exact=False,
            cache_stats=evaluate.cache_stats,
        )


#: Second-generation adversaries re-exported from :mod:`repro.search`.
_SEARCH_ADVERSARIES = (
    "PrunedExhaustiveAdversary",
    "BranchAndBoundAdversary",
    "PortfolioAdversary",
)


def __getattr__(name: str):
    """Lazily resolve the :mod:`repro.search` adversaries (PEP 562).

    ``repro.search`` imports this module for the base classes, so importing
    it eagerly here would create a cycle; deferring the import keeps
    ``from repro.core.adversary import BranchAndBoundAdversary`` working
    without one.
    """
    if name in _SEARCH_ADVERSARIES:
        import repro.search.adversaries as _search_adversaries

        return getattr(_search_adversaries, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
