"""The grid registries and the row documents of sweeps and distributions.

A :class:`~repro.api.query.Query` names its grid by registry keys; this
module owns those registries (topologies, adversaries, distribution
methods) and the factories that turn a key into an object —
:func:`build_topology`, :func:`make_adversary`, :func:`make_ball_algorithm`.
:meth:`repro.api.session.Session.run` expands a query into cells and
evaluates them through these factories.

:func:`aggregate_dist_rows` pools distribution rows across graphs for the
CLI's table.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.errors import ConfigurationError
from repro.model.graph import Graph
from repro.topology.complete import complete_graph
from repro.topology.cycle import cycle_graph
from repro.topology.grid import grid_graph
from repro.topology.path import path_graph
from repro.topology.stream import build_csr

#: Topology name -> builder ``(n, seed) -> Graph``.  Every query mode and
#: the CLI share this registry.  The random families are materialised from
#: their streamed generators, so ``scale`` mode and every other mode answer
#: on the same graph for one ``(topology, n, seed)``.
TOPOLOGY_BUILDERS: dict[str, Callable[[int, int], Graph]] = {
    "cycle": lambda n, seed: cycle_graph(n),
    "path": lambda n, seed: path_graph(n),
    "grid": lambda n, seed: grid_graph(max(2, int(round(n**0.5))), max(2, int(round(n**0.5)))),
    "complete": lambda n, seed: complete_graph(n),
    "random-tree": lambda n, seed: build_csr("random-tree", n, seed).to_graph(),
    "gnp": lambda n, seed: build_csr("gnp", n, seed).to_graph(),
}

#: Adversary strategies a search cell can request.  The first four are
#: the first-generation (reference) searches; the last three come from the
#: symmetry-aware :mod:`repro.search` subsystem.
ADVERSARY_NAMES = (
    "exhaustive",
    "random-search",
    "local-search",
    "rotation",
    "pruned-exhaustive",
    "branch-and-bound",
    "portfolio",
)


def build_topology(name: str, n: int, seed: int) -> Graph:
    """Instantiate a registered topology (raises on unknown names)."""
    try:
        builder = TOPOLOGY_BUILDERS[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown topology {name!r}; known: {', '.join(sorted(TOPOLOGY_BUILDERS))}"
        ) from exc
    return builder(n, seed)


def make_adversary(name: str, budgets, seed: int = 0, workers: Optional[int] = 1):
    """Instantiate a registered adversary by name, with the query's budgets.

    ``budgets`` is a :class:`~repro.api.query.Query` (or anything carrying
    its budget fields ``samples``, ``restarts``, ``swaps_per_step``,
    ``max_steps``, ``exhaustive_max_nodes``, ``exact_max_nodes`` and
    ``max_classes``);
    ``seed`` feeds the randomised searches and ``workers`` the process
    fan-out of the strategy portfolios (``portfolio`` and ``local-search``).
    """
    # Imported here: the engine's lower layers must stay importable without
    # repro.core (which itself imports the engine).
    from repro.core.adversary import (
        ExhaustiveAdversary,
        RandomSearchAdversary,
        RotationAdversary,
    )
    from repro.search.adversaries import PortfolioAdversary, PrunedExhaustiveAdversary
    from repro.search.portfolio import StrategySpec

    if name == "exhaustive":
        return ExhaustiveAdversary(max_nodes=budgets.exhaustive_max_nodes)
    if name == "random-search":
        return RandomSearchAdversary(samples=budgets.samples, seed=seed)
    if name == "local-search":
        # Random-restart hill climbing: one hill-climb member per restart.
        climb = StrategySpec.make(
            "hill-climb",
            swaps_per_step=budgets.swaps_per_step,
            max_steps=budgets.max_steps,
        )
        return PortfolioAdversary(
            strategies=(climb,) * budgets.restarts, seed=seed, workers=workers
        )
    if name == "rotation":
        return RotationAdversary()
    # ``branch-and-bound`` is the historical name of the one exact search.
    if name in ("pruned-exhaustive", "branch-and-bound"):
        return PrunedExhaustiveAdversary(
            max_nodes=budgets.exact_max_nodes, max_classes=budgets.max_classes
        )
    if name == "portfolio":
        return PortfolioAdversary(seed=seed, workers=workers)
    raise ConfigurationError(f"unknown adversary {name!r}")


def make_ball_algorithm(name: str, n: int):
    """Instantiate a registered algorithm as a ball algorithm.

    Round-based algorithms (e.g. ``cole-vishkin``) are wrapped in the E9
    ball compiler so every grid cell — and the ``repro search`` CLI — can
    treat them uniformly.
    """
    from repro.algorithms.full_gather import BallSimulationOfRounds
    from repro.algorithms.registry import make_algorithm
    from repro.core.algorithm import BallAlgorithm

    algorithm = make_algorithm(name, n)
    if isinstance(algorithm, BallAlgorithm):
        return algorithm
    # Round-based algorithms join the grid through the E9 ball compiler.
    return BallSimulationOfRounds(algorithm)


# ----------------------------------------------------------------------
# distribution grids
# ----------------------------------------------------------------------

#: How a distribution cell is computed: exact orbit-weighted enumeration
#: (:mod:`repro.dist.exact`) or seeded Monte-Carlo (:mod:`repro.dist.sampling`).
DIST_METHODS = ("exact", "sample")


def aggregate_dist_rows(rows: Sequence[dict]) -> list[dict]:
    """Pool distribution rows across graphs, per ``(algorithm, method)``.

    Scalar measure marginals of different-sized graphs are pooled by weight
    (:meth:`~repro.dist.distribution.DiscreteDistribution.pooled`), giving
    the distribution of each measure over the whole graph family — the
    cross-graph aggregation the experiments read.
    """
    from repro.dist.distribution import DiscreteDistribution, RoundDistribution

    groups: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["algorithm"], row["method"]), []).append(row)
    aggregates = []
    for (algorithm, method), members in sorted(groups.items()):
        distributions = [
            RoundDistribution.from_dict(member["distribution"]) for member in members
        ]
        pooled_average = DiscreteDistribution.pooled(
            [distribution.average_distribution() for distribution in distributions]
        )
        pooled_max = DiscreteDistribution.pooled(
            [distribution.max_distribution() for distribution in distributions]
        )
        aggregates.append(
            {
                "algorithm": algorithm,
                "method": method,
                "cells": len(members),
                "total_weight": pooled_average.total_weight,
                "average": pooled_average.summary(),
                "max": pooled_max.summary(),
            }
        )
    return aggregates
