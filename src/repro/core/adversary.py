"""Adversaries over identifier assignments.

Both measures in the paper are worst cases *over the identifier assignment*.
On small instances the maximum can be computed exhaustively (all ``n!``
permutations); on larger instances we fall back to randomised search,
whose result is a certified **lower bound** on the true worst case (the
witness assignment is returned so callers can re-verify it).

The adversaries are deliberately algorithm-agnostic: they only observe the
scalar objective of a full run, never the algorithm's internals.

Every adversary is one pipeline: candidates, kernel scores, first strict
maximum, one witness run.  :class:`ExhaustiveAdversary` (all ``n!``
permutations, the exact reference), :class:`RandomSearchAdversary` and
:class:`RotationAdversary` score their candidates as batch-kernel cohorts
(:func:`~repro.kernel.compile.simulate_many`, each row valued by
:func:`radii_objective`) and keep the first strict maximum.
:func:`witness_trace` then runs that witness once through an engine session
— a :class:`~repro.engine.frontier.FrontierRunner` with a
:class:`~repro.engine.cache.DecisionCache` — for its full trace (outputs
included), and builds the :class:`AdversaryResult` every adversary returns,
with the :attr:`AdversaryResult.cache_stats` of that one run.

The symmetry-pruned exact search and the swap-strategy portfolio implement
the same :class:`Adversary` interface in :mod:`repro.search.adversaries`
(:class:`~repro.search.adversaries.PrunedExhaustiveAdversary`,
:class:`~repro.search.adversaries.PortfolioAdversary`).
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

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
    validate_objective(objective)
    return radii_objective(list(trace.radii().values()), objective)


@dataclass(frozen=True)
class AdversaryResult:
    """Outcome of an adversarial search.

    ``value`` is the objective achieved by ``assignment`` (whose full trace
    is included), ``evaluations`` counts how many assignments were tried and
    ``exact`` records whether the search provably covered the whole space.
    ``cache_stats`` summarises the decision-cache hit rate of the witness's
    one engine run (:func:`witness_trace`).  The second-generation
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


def radii_objective(radii: Sequence[int], objective: str) -> float:
    """Scalar value of one row of per-node radii under a validated objective.

    Every search scores its candidates' kernel rows with it, and
    :func:`trace_objective` the radii of a trace.

    >>> radii_objective((1, 2, 3), "average"), radii_objective((1, 2, 3), "max")
    (2.0, 3.0)
    """
    if objective == "max":
        return float(max(radii))
    if objective == "sum":
        return float(sum(radii))
    return sum(radii) / len(radii)


def witness_trace(
    graph: Graph,
    algorithm: BallAlgorithm,
    objective: str,
    ids: Union[IdentifierAssignment, Sequence[int]],
    evaluations: int,
    exact: bool = False,
    certificate: Optional[object] = None,
) -> AdversaryResult:
    """The :class:`AdversaryResult` of a search whose witness is ``ids``.

    The kernel answers radii only; the witness's full trace (outputs
    included) comes from one engine session run (the ``search.witness``
    span), its objective is the reported value and ``cache_stats`` are that
    one run's.
    """
    if not isinstance(ids, IdentifierAssignment):
        ids = IdentifierAssignment(ids)
    with _obs_span("search.witness", n=graph.n):
        cache = DecisionCache(algorithm, max_entries=DECISION_CACHE_MAX_ENTRIES)
        trace = FrontierRunner(graph, algorithm, cache=cache).run(ids)
    return AdversaryResult(
        assignment=ids,
        trace=trace,
        value=trace_objective(trace, objective),
        objective=objective,
        evaluations=evaluations,
        exact=exact,
        cache_stats=cache.stats,
        certificate=certificate,
    )


def _best_of(
    graph: Graph,
    algorithm: BallAlgorithm,
    objective: str,
    candidates: Iterable[Union[IdentifierAssignment, Sequence[int]]],
    exact: bool = False,
) -> AdversaryResult:
    """Score ``candidates`` in kernel cohorts; the first strict maximum wins.

    Candidates are drawn :data:`~repro.kernel.compile.DEFAULT_BATCH_ROWS` at
    a time, so memory stays one cohort of rows whatever their number.
    ``exact`` says whether they cover every assignment.
    """
    if graph.n == 0:
        raise AnalysisError("cannot run an adversary on an empty graph")
    kernel = compile_instance(graph, algorithm)
    candidates = iter(candidates)
    best = None
    best_value = -1.0
    evaluations = 0
    while cohort := list(itertools.islice(candidates, DEFAULT_BATCH_ROWS)):
        evaluations += len(cohort)
        (radii_rows,) = simulate_many([BatchRequest(kernel, cohort)])
        for ids, radii in zip(cohort, radii_rows):
            value = radii_objective(radii, objective)
            if value > best_value:
                best, best_value = ids, value
    assert best is not None  # at least one candidate
    return witness_trace(graph, algorithm, objective, best, evaluations, exact)


class Adversary(abc.ABC):
    """Base class: search identifier assignments maximising an objective."""

    @abc.abstractmethod
    def maximise(
        self, graph: Graph, algorithm: BallAlgorithm, objective: str = "average"
    ) -> AdversaryResult:
        """Return the best assignment found for the given objective."""


class ExhaustiveAdversary(Adversary):
    """Try every permutation of ``0..n-1`` — exact, but only feasible for tiny n.

    The permutations are scored in kernel cohorts in lexicographic order, so
    the witness is the first optimal permutation.  ``max_nodes`` protects
    against accidentally launching a factorial search on a large graph.
    This is the reference implementation that the
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
        permutations = itertools.permutations(range(graph.n))
        return _best_of(graph, algorithm, objective, permutations, exact=True)


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

