"""The running-time measures compared by the paper — a unified facade.

For a deterministic algorithm ``A`` on a fixed graph ``G`` with identifier
assignment ``ids``, each node ``v`` outputs at some radius ``r(v)``.  The
paper contrasts two ways of turning the collection ``{r(v)}`` into a single
number, both taken in the worst case over identifier assignments:

* the **classic** (worst-case) measure  ``max_ids max_v r(v)``, and
* the **average** measure               ``max_ids (1/n) * sum_v r(v)``.

This module is the *facade* of the measure layer.  A :class:`Measure`
bundles everything one scalar measure knows how to do — collapse a trace,
aggregate worst cases over runs, extract its marginal from a
:class:`~repro.dist.distribution.RoundDistribution` — and the registry
:data:`MEASURES` holds the paper's measures plus the radius sum.  The
heavy lifting lives elsewhere and is delegated to:

* :mod:`repro.core.adversary` / :mod:`repro.search` for the outer
  worst-case-over-assignments maximisation (exact, with certificates);
* :mod:`repro.dist.exact` for the exact distribution of both measures over
  all ``n!`` assignments (orbit-weighted canonical enumeration);
* :mod:`repro.dist.sampling` for seeded Monte-Carlo estimates with
  standard errors.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.core.adversary import AdversaryResult, trace_objective
from repro.core.algorithm import BallAlgorithm
from repro.core.runner import run_ball_algorithm
from repro.errors import AnalysisError
from repro.model.graph import Graph
from repro.model.identifiers import IdentifierAssignment
from repro.model.trace import ExecutionTrace
from repro.utils.rng import SeedLike

if TYPE_CHECKING:  # imported lazily at runtime to keep the layers acyclic
    from repro.dist.distribution import DiscreteDistribution
    from repro.dist.exact import ExactDistributionResult
    from repro.dist.sampling import SampledDistributionResult


@dataclass(frozen=True)
class Measure:
    """One scalar running-time measure, with every way the library uses it.

    ``objective`` is the key understood by the adversaries and the trace
    layer (``max``, ``average`` or ``sum``); ``name`` is the paper-facing
    name.  The class replaces the former bag of per-measure helper
    functions: collapsing one trace, taking the worst case over a set of
    runs, and slicing a distribution are all methods of the same object.

    >>> from repro.algorithms.largest_id import LargestIdAlgorithm
    >>> from repro.core.runner import run_ball_algorithm
    >>> from repro.model.identifiers import identity_assignment
    >>> from repro.topology.cycle import cycle_graph
    >>> trace = run_ball_algorithm(
    ...     cycle_graph(4), identity_assignment(4), LargestIdAlgorithm()
    ... )
    >>> CLASSIC_MEASURE.of_trace(trace)
    2.0
    >>> AVERAGE_MEASURE.worst_over_traces([trace])
    1.25
    """

    name: str
    objective: str
    description: str

    def of_trace(self, trace: ExecutionTrace) -> float:
        """Collapse one run's radius profile into this measure's scalar."""
        return trace_objective(trace, self.objective)

    def worst_over_traces(self, traces: Iterable[ExecutionTrace]) -> float:
        """Worst case of this measure over a set of runs.

        The maximum (not the mean) is intentional: the paper's measures are
        worst cases over identifier assignments of per-run scalars.
        """
        values = [self.of_trace(trace) for trace in traces]
        if not values:
            raise AnalysisError(
                f"worst_over_traces of measure {self.name!r} needs at least one trace"
            )
        return max(values)

    def marginal(self, distribution) -> "DiscreteDistribution":
        """This measure's marginal of a :class:`RoundDistribution`."""
        if self.objective == "max":
            return distribution.max_distribution()
        if self.objective == "sum":
            return distribution.sum_distribution()
        return distribution.average_distribution()


#: The paper's two headline measures plus the radius sum they share.
CLASSIC_MEASURE = Measure(
    name="classic",
    objective="max",
    description="worst radius over the nodes (the classic LOCAL running time)",
)
AVERAGE_MEASURE = Measure(
    name="average",
    objective="average",
    description="mean radius over the nodes (the paper's average measure)",
)
SUM_MEASURE = Measure(
    name="sum",
    objective="sum",
    description="total radius over the nodes (the recurrence's quantity)",
)

#: Registry by name *and* by adversary objective key.
MEASURES: dict[str, Measure] = {
    measure.name: measure
    for measure in (CLASSIC_MEASURE, AVERAGE_MEASURE, SUM_MEASURE)
}


def get_measure(name: str) -> Measure:
    """Resolve a measure by name (``classic``/``average``/``sum``) or objective key.

    >>> get_measure("classic").objective
    'max'
    >>> get_measure("max") is CLASSIC_MEASURE
    True
    >>> get_measure("median")
    Traceback (most recent call last):
        ...
    repro.errors.AnalysisError: unknown measure 'median'; known: average, classic, max, sum
    """
    if name in MEASURES:
        return MEASURES[name]
    for measure in MEASURES.values():
        if measure.objective == name:
            return measure
    known = sorted(set(MEASURES) | {m.objective for m in MEASURES.values()})
    raise AnalysisError(f"unknown measure {name!r}; known: {', '.join(known)}")


@dataclass(frozen=True)
class ComplexityReport:
    """Both measures of a single execution, plus context for tables."""

    graph_name: str
    algorithm_name: str
    n: int
    max_radius: int
    average_radius: float
    sum_radius: int

    @classmethod
    def from_trace(
        cls, trace: ExecutionTrace, graph: Graph, algorithm: BallAlgorithm
    ) -> "ComplexityReport":
        """Summarise one execution trace."""
        return cls(
            graph_name=graph.name,
            algorithm_name=algorithm.name,
            n=trace.n,
            max_radius=trace.max_radius,
            average_radius=trace.average_radius,
            sum_radius=trace.sum_radius,
        )

    def as_dict(self) -> dict:
        """Plain-dict form with the document tag (the JSON schema's payload)."""
        return {"kind": "complexity-report", "version": 1, **asdict(self)}

    def to_json(self) -> str:
        """Serialise as a machine-readable JSON document.

        The schema is documented in ``docs/distributions.md``;
        :meth:`from_json` round-trips it.

        >>> report = ComplexityReport("cycle-4", "largest-id", 4, 2, 1.25, 5)
        >>> ComplexityReport.from_json(report.to_json()) == report
        True
        """
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ComplexityReport":
        """Parse a report previously produced by :meth:`to_json`."""
        document = json.loads(text)
        if document.get("kind") != "complexity-report":
            raise AnalysisError(
                f"not a complexity-report document: kind={document.get('kind')!r}"
            )
        fields = {key: document[key] for key in (
            "graph_name", "algorithm_name", "n", "max_radius", "average_radius", "sum_radius"
        )}
        return cls(**fields)


def classic_complexity(traces: Iterable[ExecutionTrace]) -> int:
    """Classic measure over a set of runs: the largest ``max_radius`` seen.

    Facade over :meth:`Measure.worst_over_traces` of :data:`CLASSIC_MEASURE`.

    >>> from repro.algorithms.largest_id import LargestIdAlgorithm
    >>> from repro.engine.frontier import FrontierRunner
    >>> from repro.model.identifiers import identity_assignment, reversed_assignment
    >>> from repro.topology.cycle import cycle_graph
    >>> runner = FrontierRunner(cycle_graph(5), LargestIdAlgorithm())
    >>> traces = [runner.run(identity_assignment(5)), runner.run(reversed_assignment(5))]
    >>> classic_complexity(traces)
    2
    >>> classic_complexity([])
    Traceback (most recent call last):
        ...
    repro.errors.AnalysisError: worst_over_traces of measure 'classic' needs at least one trace
    """
    return int(CLASSIC_MEASURE.worst_over_traces(traces))


def average_complexity(traces: Iterable[ExecutionTrace]) -> float:
    """Average measure over a set of runs: the largest ``average_radius`` seen.

    Facade over :meth:`Measure.worst_over_traces` of :data:`AVERAGE_MEASURE`;
    the maximum (not the mean) over runs is intentional — the paper's measure
    is a *worst case* over identifier assignments of the per-run average.

    >>> from repro.algorithms.largest_id import LargestIdAlgorithm
    >>> from repro.engine.frontier import FrontierRunner
    >>> from repro.model.identifiers import identity_assignment
    >>> from repro.topology.cycle import cycle_graph
    >>> runner = FrontierRunner(cycle_graph(4), LargestIdAlgorithm())
    >>> traces = [runner.run(identity_assignment(4))]
    >>> average_complexity(traces)
    1.25
    """
    return AVERAGE_MEASURE.worst_over_traces(traces)


def exact_worst_case(
    graph: Graph,
    algorithm: BallAlgorithm,
    objective: str = "average",
    max_nodes: int | None = None,
) -> AdversaryResult:
    """Certified-exact ``max`` over identifier assignments of the chosen measure.

    Runs the symmetry-pruned exact search of :mod:`repro.search` (the
    ``pruned-exhaustive`` adversary): the result carries ``exact=True``, a witness
    assignment, and a :class:`~repro.search.branch_bound.SearchCertificate`
    describing the enumeration.  Feasibility reaches well past the legacy
    ``n <= 9`` exhaustive limit on symmetric topologies.

    >>> from repro.algorithms.largest_id import LargestIdAlgorithm
    >>> from repro.topology.cycle import cycle_graph
    >>> result = exact_worst_case(cycle_graph(6), LargestIdAlgorithm(), "sum")
    >>> result.exact, result.value
    (True, 10.0)
    >>> result.certificate.group_order
    12
    """
    from repro.search.adversaries import PrunedExhaustiveAdversary

    if max_nodes is None:
        adversary = PrunedExhaustiveAdversary()
    else:
        adversary = PrunedExhaustiveAdversary(max_nodes=max_nodes)
    return adversary.maximise(graph, algorithm, objective=objective)


def exact_measure_distribution(
    graph: Graph, algorithm: BallAlgorithm, **kwargs
) -> "ExactDistributionResult":
    """Facade over :func:`repro.dist.exact.exact_round_distribution`.

    The exact joint distribution of both measures over all ``n!``
    identifier assignments, computed from ``n!/|Aut|`` simulations, with a
    :class:`~repro.dist.exact.DistributionCertificate`.

    >>> from repro.algorithms.largest_id import LargestIdAlgorithm
    >>> from repro.topology.cycle import cycle_graph
    >>> result = exact_measure_distribution(cycle_graph(5), LargestIdAlgorithm())
    >>> result.distribution.total_weight
    120
    """
    from repro.dist.exact import exact_round_distribution

    return exact_round_distribution(graph, algorithm, **kwargs)


def sampled_measure_distribution(
    graph: Graph, algorithm: BallAlgorithm, **kwargs
) -> "SampledDistributionResult":
    """Facade over :func:`repro.dist.sampling.sample_round_distribution`.

    A seeded Monte-Carlo estimate of the measure distribution, with
    streaming moments, quantile sketches and standard errors.
    """
    from repro.dist.sampling import sample_round_distribution

    return sample_round_distribution(graph, algorithm, **kwargs)


def expected_measures_over_random_ids(
    graph: Graph,
    algorithm: BallAlgorithm,
    assignments: Optional[Sequence[IdentifierAssignment]] = None,
    samples: int = 64,
    seed: SeedLike = None,
) -> "SampledDistributionResult":
    """Monte-Carlo estimate of the *expected* measures under random identifiers.

    This is the quantity the paper's conclusion proposes to study ("the
    expectancy of the running time ... where the permutation of the
    identifiers is taken uniformly at random").  The estimate is computed by
    the streaming estimators of :mod:`repro.dist.sampling`: either over the
    explicitly supplied ``assignments`` or, when ``assignments`` is omitted,
    over ``samples`` permutations drawn under the explicit ``seed``.

    The expectations are ``.average.mean`` and ``.maximum.mean`` of the
    returned :class:`~repro.dist.sampling.SampledDistributionResult`, whose
    per-measure estimates also carry standard errors and confidence
    intervals.

    >>> from repro.algorithms.largest_id import LargestIdAlgorithm
    >>> from repro.topology.cycle import cycle_graph
    >>> result = expected_measures_over_random_ids(
    ...     cycle_graph(8), LargestIdAlgorithm(), samples=16, seed=1
    ... )
    >>> result.maximum.mean  # the maximum's node always sees half the cycle
    4.0
    >>> result.average.std_error > 0
    True
    """
    from repro.dist.sampling import sample_round_distribution

    return sample_round_distribution(
        graph, algorithm, samples=samples, seed=seed, assignments=assignments
    )


def measure_objective(trace: ExecutionTrace, objective: str) -> float:
    """Extract one scalar objective from a trace.

    Thin alias of :func:`repro.core.adversary.trace_objective`, re-exported
    here because callers that only compute measures should not need to know
    about the adversary module.
    """
    return trace_objective(trace, objective)
