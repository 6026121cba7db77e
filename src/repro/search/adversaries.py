"""Drop-in adversaries backed by the second-generation search layer.

These classes implement the :class:`~repro.core.adversary.Adversary`
interface, so every call site that accepts the legacy adversaries — the
measures, the campaign grid, the CLI — can use them unchanged.  The exact
ones attach a :class:`~repro.search.branch_bound.SearchCertificate` to the
result; the portfolio attaches a
:class:`~repro.search.portfolio.PortfolioCertificate`.
"""

from __future__ import annotations

import math
from random import Random
from typing import Optional, Sequence

from repro.core.adversary import (
    Adversary,
    AdversaryResult,
    _SessionEvaluator,
    validate_objective,
)
from repro.core.algorithm import BallAlgorithm
from repro.errors import ConfigurationError
from repro.model.graph import Graph
from repro.model.identifiers import IdentifierAssignment, random_assignment
from repro.search.branch_bound import BranchAndBoundSearch
from repro.search.incremental import SwapEvaluator
from repro.search.portfolio import PortfolioSearch, StrategySpec
from repro.search.strategies import hill_climb
from repro.utils.validation import require_positive_int

#: Node cap for the exact searches.  Symmetry pruning pushes exhaustive
#: feasibility past the legacy limit of 9, but the search is still factorial
#: in the worst (asymmetric) case, so a guard remains.
DEFAULT_EXACT_MAX_NODES = 12

#: Budget on ``n! / |Aut|``, the number of canonical assignment classes an
#: exact search may face.  This is the honest feasibility measure — the
#: 10-cycle (181 440 classes) is fine, the 12-path (239 500 800) is not,
#: and ``K_12`` (a single class) is trivial despite its 12 nodes.
DEFAULT_MAX_CLASSES = 250_000


class PrunedExhaustiveAdversary(Adversary):
    """Exact search by canonical enumeration (symmetry pruning only).

    Enumerates exactly one identifier assignment per orbit of the graph's
    automorphism group — ``n! / |Aut|`` assignments on a symmetric topology
    instead of ``n!`` — and evaluates them in kernel cohorts.  The result is
    the same certified optimum as the legacy
    :class:`~repro.core.adversary.ExhaustiveAdversary`, with the enumeration
    audit on :attr:`AdversaryResult.certificate`.
    """

    def __init__(
        self,
        max_nodes: int = DEFAULT_EXACT_MAX_NODES,
        respect_ports: Optional[bool] = None,
        max_classes: int = DEFAULT_MAX_CLASSES,
    ) -> None:
        require_positive_int(max_nodes, "max_nodes")
        require_positive_int(max_classes, "max_classes")
        self.max_nodes = max_nodes
        self.max_classes = max_classes
        self.respect_ports = respect_ports

    def maximise(
        self, graph: Graph, algorithm: BallAlgorithm, objective: str = "average"
    ) -> AdversaryResult:
        validate_objective(objective)
        if graph.n > self.max_nodes:
            raise ConfigurationError(
                f"{type(self).__name__} is limited to {self.max_nodes} nodes "
                f"(got {graph.n}); use PortfolioAdversary for larger instances"
            )
        search = BranchAndBoundSearch(
            graph,
            algorithm,
            objective=objective,
            respect_ports=self.respect_ports,
        )
        classes = math.factorial(graph.n) // max(1, search.group.order)
        if classes > self.max_classes:
            raise ConfigurationError(
                f"{type(self).__name__} on {graph.name!r} faces ~{classes} canonical "
                f"assignment classes (n! / |Aut| with |Aut| = {search.group.order}), "
                f"above the budget of {self.max_classes}; raise max_classes or use "
                f"PortfolioAdversary for a certified lower bound"
            )
        incumbent, incumbent_evaluations = self._incumbent(graph, algorithm, objective)
        outcome = search.run(incumbent=incumbent)
        assignment = IdentifierAssignment(outcome.identifiers)
        # The kernel answers radii only: the witness's full trace (outputs
        # included) comes from one engine session run.
        session = _SessionEvaluator(graph, algorithm, objective)
        trace, value = session(assignment)
        certificate = outcome.certificate
        # Honest total search cost: the canonical leaves enumerated, plus the
        # incumbent hill climb's (incremental) evaluations, plus the search's
        # own evaluation of the seeded incumbent.
        evaluations = (
            certificate.canonical_leaves
            + incumbent_evaluations
            + (1 if certificate.incumbent_seeded else 0)
        )
        return AdversaryResult(
            assignment=assignment,
            trace=trace,
            value=value,
            objective=objective,
            evaluations=evaluations,
            exact=True,
            cache_stats=session.cache_stats,
            certificate=outcome.certificate,
        )

    def _incumbent(
        self, graph: Graph, algorithm: BallAlgorithm, objective: str
    ) -> tuple[Optional[tuple[int, ...]], int]:
        """(incumbent assignment or None, evaluations spent finding it).

        Pure enumeration needs no incumbent.
        """
        return None, 0


class BranchAndBoundAdversary(PrunedExhaustiveAdversary):
    """Canonical enumeration seeded with a hill-climbed incumbent.

    A short deterministic hill climb finds an incumbent before the
    enumeration; a canonical leaf replaces it only by strictly beating it,
    so the incumbent decides ties between equally bad witnesses.  The value
    is the same exact optimum as :class:`PrunedExhaustiveAdversary`.
    """

    def _incumbent(
        self, graph: Graph, algorithm: BallAlgorithm, objective: str
    ) -> tuple[Optional[tuple[int, ...]], int]:
        if graph.n < 2:
            return None, 0
        rng = Random(0x5EED)
        evaluator = SwapEvaluator(
            graph,
            algorithm,
            objective=objective,
            ids=random_assignment(graph.n, seed=rng.getrandbits(64)),
        )
        result = hill_climb(evaluator, rng, swaps_per_step=16, max_steps=24)
        return result.identifiers, evaluator.evaluations


class PortfolioAdversary(Adversary):
    """Heuristic search: a parallel portfolio of swap-based strategies.

    The result is a certified **lower bound** on the true worst case
    (``exact=False``); the witness assignment reproduces the reported value
    on re-evaluation, and per-strategy statistics land on the certificate.
    """

    def __init__(
        self,
        strategies: Optional[Sequence[StrategySpec]] = None,
        seed: int = 0,
        workers: Optional[int] = 1,
    ) -> None:
        self.portfolio = PortfolioSearch(
            strategies=strategies, seed=seed, workers=workers
        )

    def maximise(
        self, graph: Graph, algorithm: BallAlgorithm, objective: str = "average"
    ) -> AdversaryResult:
        validate_objective(objective)
        best, certificate = self.portfolio.run(graph, algorithm, objective=objective)
        assignment = IdentifierAssignment(best.identifiers)
        # Re-evaluate the witness in a fresh session: the reported value must
        # be reproducible outside the strategy's incremental bookkeeping.
        evaluator = SwapEvaluator(graph, algorithm, objective=objective, ids=assignment)
        value = evaluator.value
        evaluations = sum(row["evaluations"] for row in certificate.rows)
        return AdversaryResult(
            assignment=assignment,
            trace=evaluator.trace(),
            value=value,
            objective=objective,
            evaluations=evaluations,
            exact=False,
            cache_stats=evaluator.cache_stats,
            certificate=certificate,
        )
