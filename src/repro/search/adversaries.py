"""Drop-in adversaries backed by the second-generation search layer.

These classes implement the :class:`~repro.core.adversary.Adversary`
interface, so every call site that accepts the legacy adversaries — the
measures, the campaign grid, the CLI — can use them unchanged.  The exact
one attaches a :class:`~repro.search.branch_bound.SearchCertificate` to the
result; the portfolio attaches a
:class:`~repro.search.portfolio.PortfolioCertificate`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.core.adversary import (
    Adversary,
    AdversaryResult,
    validate_objective,
    witness_trace,
)
from repro.core.algorithm import BallAlgorithm
from repro.errors import ConfigurationError
from repro.model.graph import Graph
from repro.search.branch_bound import (
    DEFAULT_EXACT_MAX_NODES,
    DEFAULT_MAX_CLASSES,
    BranchAndBoundSearch,
)
from repro.search.portfolio import PortfolioSearch, StrategySpec
from repro.utils.validation import require_positive_int


class PrunedExhaustiveAdversary(Adversary):
    """Exact search by canonical enumeration (symmetry pruning only).

    Enumerates exactly one identifier assignment per orbit of the graph's
    automorphism group — ``n! / |Aut|`` assignments on a symmetric topology
    instead of ``n!`` — and evaluates them in kernel blocks.  The result is
    the same certified optimum as the legacy
    :class:`~repro.core.adversary.ExhaustiveAdversary`, with the enumeration
    audit on :attr:`AdversaryResult.certificate`; the witness is the first
    optimal canonical leaf in lexicographic slot order.  This is the one
    exact search: the registry names ``pruned-exhaustive`` and
    ``branch-and-bound`` both build it.
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
        outcome = search.run()
        return witness_trace(
            graph,
            algorithm,
            objective,
            outcome.identifiers,
            evaluations=outcome.certificate.canonical_leaves,
            exact=True,
            certificate=outcome.certificate,
        )


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
        return witness_trace(
            graph,
            algorithm,
            objective,
            best.identifiers,
            evaluations=sum(row["evaluations"] for row in certificate.rows),
            certificate=certificate,
        )
