"""A deterministic parallel portfolio of search strategies.

No single heuristic dominates across topologies and algorithms: hill
climbing converges fastest on smooth landscapes, annealing and tabu escape
the plateaus of structured instances, and random probing is a safety net on
tiny or degenerate ones.  :class:`PortfolioSearch` runs a configurable set
of strategies — each with its own deterministically derived seed and
starting assignment — through the engine's
:class:`~repro.engine.batch.BatchExecutor` on one compiled instance, and
returns the best witness found together with per-strategy statistics.

Determinism: strategy seeds come from
:func:`~repro.engine.batch.derive_task_seed` keyed by the portfolio seed and
the strategy's name and index, so results are bit-identical at any worker
count (the executor preserves submission order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import TYPE_CHECKING, Optional, Sequence

from repro.engine.batch import BatchExecutor, derive_task_seed
from repro.errors import ConfigurationError
from repro.kernel.compile import CompiledInstance, compile_instance
from repro.model.graph import Graph
from repro.model.identifiers import random_assignment
from repro.obs.spans import span as _obs_span
from repro.search.strategies import (
    StrategyResult,
    SwapEvaluator,
    hill_climb,
    random_probe,
    simulated_annealing,
    tabu_search,
)

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.core.algorithm import BallAlgorithm

#: Strategy name -> callable(evaluator, rng, **params).
STRATEGY_FUNCTIONS = {
    "hill-climb": hill_climb,
    "annealing": simulated_annealing,
    "tabu": tabu_search,
    "random-probe": random_probe,
}


@dataclass(frozen=True)
class StrategySpec:
    """One portfolio member: a strategy name plus its keyword parameters."""

    name: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.name not in STRATEGY_FUNCTIONS:
            raise ConfigurationError(
                f"unknown strategy {self.name!r}; known: {sorted(STRATEGY_FUNCTIONS)}"
            )

    @classmethod
    def make(cls, name: str, **params: object) -> "StrategySpec":
        """Build a spec from keyword parameters."""
        return cls(name=name, params=tuple(sorted(params.items())))


def default_portfolio() -> tuple[StrategySpec, ...]:
    """The standard four-member portfolio (one member per strategy family)."""
    return (
        StrategySpec.make("hill-climb", swaps_per_step=24, max_steps=48),
        StrategySpec.make("annealing", steps=300),
        StrategySpec.make("tabu", steps=80, sample=16),
        StrategySpec.make("random-probe", samples=12),
    )


@dataclass(frozen=True)
class PortfolioCertificate:
    """Per-strategy outcome summary attached to a portfolio result.

    Portfolio results are **lower-bound witnesses**, not exact optima: each
    row records what one strategy achieved so regressions and strategy
    dominance are visible in sweeps.
    """

    rows: tuple[dict, ...] = field(default_factory=tuple)

    def as_dict(self) -> dict:
        """JSON-friendly form (campaign rows, benchmark artifacts)."""
        return {"exact": False, "strategies": list(self.rows)}


def run_member(
    payload: tuple[CompiledInstance, str, StrategySpec, int],
) -> StrategyResult:
    """Worker: run one strategy from a deterministic random start."""
    kernel, objective, spec, seed = payload
    with _obs_span("search.strategy", strategy=spec.name):
        rng = Random(seed)
        start = random_assignment(kernel.n, seed=rng.getrandbits(64))
        evaluator = SwapEvaluator(kernel, objective=objective, ids=start)
        function = STRATEGY_FUNCTIONS[spec.name]
        return function(evaluator, rng, **dict(spec.params))


def run_strategy(
    payload: tuple[Graph, "BallAlgorithm", str, StrategySpec, int],
) -> StrategyResult:
    """:func:`run_member` on a ``(graph, algorithm)`` pair compiled for this run."""
    graph, algorithm, objective, spec, seed = payload
    return run_member((compile_instance(graph, algorithm), objective, spec, seed))


class PortfolioSearch:
    """Race independent strategies and keep the best certified witness.

    Parameters
    ----------
    strategies:
        Portfolio members; defaults to :func:`default_portfolio`.
    seed:
        Base seed from which every member's private seed is derived.
    workers:
        Worker processes for the fan-out (1 = in-process, the default).
    """

    def __init__(
        self,
        strategies: Optional[Sequence[StrategySpec]] = None,
        seed: int = 0,
        workers: Optional[int] = 1,
    ) -> None:
        if strategies is None:
            strategies = default_portfolio()
        self.strategies = tuple(strategies)
        if not self.strategies:
            raise ConfigurationError("a portfolio needs at least one strategy")
        self.seed = seed
        self.workers = workers

    def run(
        self, graph: Graph, algorithm: "BallAlgorithm", objective: str = "average"
    ) -> tuple[StrategyResult, PortfolioCertificate]:
        """Run every member and return (best result, per-strategy certificate).

        The instance is compiled once; every member scores on it (a pooled
        member on its pickled copy).
        """
        kernel = compile_instance(graph, algorithm)
        payloads = [
            (kernel, objective, spec, derive_task_seed(self.seed, spec.name, index))
            for index, spec in enumerate(self.strategies)
        ]
        results = BatchExecutor(self.workers).map(run_member, payloads)
        best = max(results, key=lambda result: result.value)
        certificate = PortfolioCertificate(
            rows=tuple(
                {
                    "strategy": result.name,
                    "value": result.value,
                    "evaluations": result.evaluations,
                    "steps": result.steps,
                }
                for result in results
            )
        )
        return best, certificate
