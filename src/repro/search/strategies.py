"""Swap-based search strategies over a kernel-scored :class:`SwapEvaluator`.

Each strategy starts from the evaluator's current assignment, explores
transpositions of two identifiers, and returns the best assignment it has
*seen* (not necessarily the one it ends on — annealing and tabu search
deliberately walk through worse states).  All strategies draw every random
choice from the supplied ``rng``, so a fixed seed makes a strategy fully
deterministic; the parallel portfolio relies on this.

The compiled batch kernel (:mod:`repro.kernel.compile`) is the only scorer.
Hill climbing and tabu search score their whole per-step sample of swaps
as one kernel cohort (one row per candidate); annealing scores its single
proposal, and random probing its restart, as a one-row call.  A step that
moves exchanges the two identifiers and keeps the value the kernel returned
for that row — nothing is re-simulated to commit it.  ``evaluations``
counts kernel rows: one per examined swap or restart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Optional, Sequence

from repro.core.adversary import radii_objective, validate_objective
from repro.errors import TopologyError
from repro.kernel.compile import CompiledInstance
from repro.model.identifiers import (
    IdentifierAssignment,
    identity_assignment,
    random_assignment,
)


class SwapEvaluator:
    """The current assignment of a swap search and its kernel-scored value.

    Holds the current identifiers, their objective ``value``, an
    ``evaluations`` counter (kernel rows scored) and the
    :class:`~repro.kernel.compile.CompiledInstance` it scores on — the only
    thing it reads, so one compiled instance serves every member of a
    portfolio.  Algorithms without a vectorised rule are scored by the
    kernel's decide-backed :class:`~repro.kernel.rules.RunnerTableRule`, so
    every algorithm can be searched.

    Parameters
    ----------
    kernel:
        The compiled ``(graph, algorithm)`` instance.
    objective:
        The objective to report (``average``, ``max`` or ``sum``).
    ids:
        Starting assignment; defaults to the identity.
    """

    def __init__(
        self,
        kernel: CompiledInstance,
        objective: str = "average",
        ids: Optional[IdentifierAssignment] = None,
    ) -> None:
        validate_objective(objective)
        self.objective = objective
        self.kernel = kernel
        self.evaluations = 0
        self.reset(ids if ids is not None else identity_assignment(kernel.n))

    @property
    def identifiers(self) -> tuple[int, ...]:
        """The current assignment as a position -> identifier tuple."""
        return tuple(self._ids)

    def reset(self, ids: IdentifierAssignment) -> float:
        """Replace the current assignment (one kernel row) and return its value."""
        if ids.n != self.kernel.n:
            raise TopologyError(
                f"identifier assignment covers {ids.n} positions "
                f"but graph has {self.kernel.n}"
            )
        self._ids = list(ids.identifiers())
        (self.value,) = self._score([self._ids])
        return self.value

    def score(self, pairs: Sequence[tuple[int, int]]) -> list[float]:
        """Values of the current assignment with each pair swapped.

        One kernel cohort, one row per pair; the evaluator does not move.
        """
        rows = []
        for a, b in pairs:
            row = list(self._ids)
            row[a], row[b] = row[b], row[a]
            rows.append(row)
        return self._score(rows)

    def swap(self, position_a: int, position_b: int, value: float) -> None:
        """Exchange two identifiers; ``value`` is the kernel's score of the swap."""
        ids = self._ids
        ids[position_a], ids[position_b] = ids[position_b], ids[position_a]
        self.value = value

    def _score(self, rows: list[list[int]]) -> list[float]:
        # Rows are permutations of validated identifiers, so the kernel may
        # skip its per-row check; identifiers past int64 take the stdlib path.
        self.evaluations += len(rows)
        radii_rows = self.kernel.batch_radii(rows, pre_validated=True)
        return [radii_objective(radii, self.objective) for radii in radii_rows]


@dataclass(frozen=True)
class StrategyResult:
    """Best assignment found by one strategy run."""

    name: str
    value: float
    identifiers: tuple[int, ...]
    evaluations: int
    steps: int


def _sample_pair(rng: Random, n: int) -> tuple[int, int]:
    if n < 2:
        return 0, 0
    a = rng.randrange(n)
    b = rng.randrange(n - 1)
    if b >= a:
        b += 1
    return a, b


def _sample_pairs(rng: Random, n: int, count: int) -> list[tuple[int, int]]:
    """``count`` draws of :func:`_sample_pair`, degenerate pairs dropped."""
    pairs = []
    for _ in range(count):
        a, b = _sample_pair(rng, n)
        if a != b:
            pairs.append((a, b))
    return pairs


def hill_climb(
    evaluator: SwapEvaluator,
    rng: Random,
    swaps_per_step: int = 32,
    max_steps: int = 64,
) -> StrategyResult:
    """Best-improvement hill climbing over sampled transpositions.

    Each step examines ``swaps_per_step`` random pairs and commits the best
    strictly improving one; the climb stops at a local optimum or after
    ``max_steps`` steps.
    """
    before = evaluator.evaluations
    steps = 0
    for _ in range(max_steps):
        pairs = _sample_pairs(rng, evaluator.kernel.n, swaps_per_step)
        best_pair = None
        best_value = evaluator.value
        for pair, value in zip(pairs, evaluator.score(pairs)):
            if value > best_value:
                best_pair = pair
                best_value = value
        if best_pair is None:
            break
        evaluator.swap(*best_pair, best_value)
        steps += 1
    return StrategyResult(
        name="hill-climb",
        value=evaluator.value,
        identifiers=evaluator.identifiers,
        evaluations=evaluator.evaluations - before,
        steps=steps,
    )


def simulated_annealing(
    evaluator: SwapEvaluator,
    rng: Random,
    steps: int = 400,
    start_temperature: float = 1.0,
    end_temperature: float = 0.02,
) -> StrategyResult:
    """Metropolis walk over transpositions with a geometric cooling schedule.

    Worsening swaps are accepted with probability ``exp(delta / t)``, which
    lets the walk escape the local optima where pure hill climbing stalls;
    the best assignment seen anywhere along the walk is returned.
    """
    before = evaluator.evaluations
    best_value = evaluator.value
    best_ids = evaluator.identifiers
    ratio = end_temperature / start_temperature
    for step in range(steps):
        temperature = start_temperature * ratio ** (step / max(1, steps - 1))
        a, b = _sample_pair(rng, evaluator.kernel.n)
        if a == b:
            continue
        (value,) = evaluator.score([(a, b)])
        gain = value - evaluator.value
        if gain >= 0 or rng.random() < math.exp(gain / temperature):
            evaluator.swap(a, b, value)
            if value > best_value:
                best_value = value
                best_ids = evaluator.identifiers
    return StrategyResult(
        name="annealing",
        value=best_value,
        identifiers=best_ids,
        evaluations=evaluator.evaluations - before,
        steps=steps,
    )


def tabu_search(
    evaluator: SwapEvaluator,
    rng: Random,
    steps: int = 100,
    tenure: int = 8,
    sample: int = 24,
) -> StrategyResult:
    """Tabu search: always move to the best sampled neighbour, even downhill.

    A committed pair of positions becomes tabu for ``tenure`` steps (unless
    the move would beat the best value seen — the classic aspiration
    criterion), which stops the walk from immediately undoing itself.
    """
    before = evaluator.evaluations
    best_value = evaluator.value
    best_ids = evaluator.identifiers
    tabu_until: dict[tuple[int, int], int] = {}
    for step in range(steps):
        pairs = _sample_pairs(rng, evaluator.kernel.n, sample)
        best_pair = None
        best_pair_value = None
        for (a, b), value in zip(pairs, evaluator.score(pairs)):
            pair = (min(a, b), max(a, b))
            if tabu_until.get(pair, -1) > step and value <= best_value:
                continue  # tabu, and aspiration does not apply
            if best_pair is None or value > best_pair_value:
                best_pair = (a, b)
                best_pair_value = value
        if best_pair is None:
            continue
        evaluator.swap(*best_pair, best_pair_value)
        tabu_until[(min(best_pair), max(best_pair))] = step + tenure
        if best_pair_value > best_value:
            best_value = best_pair_value
            best_ids = evaluator.identifiers
    return StrategyResult(
        name="tabu",
        value=best_value,
        identifiers=best_ids,
        evaluations=evaluator.evaluations - before,
        steps=steps,
    )


def random_probe(
    evaluator: SwapEvaluator,
    rng: Random,
    samples: int = 16,
) -> StrategyResult:
    """Full restarts from uniformly random assignments (the baseline).

    Each sample is one kernel row; the strategy is kept in the portfolio as
    a diversification backstop.
    """
    before = evaluator.evaluations
    best_value = evaluator.value
    best_ids = evaluator.identifiers
    n = evaluator.kernel.n
    for _ in range(samples):
        value = evaluator.reset(random_assignment(n, seed=rng.getrandbits(64)))
        if value > best_value:
            best_value = value
            best_ids = evaluator.identifiers
    return StrategyResult(
        name="random-probe",
        value=best_value,
        identifiers=best_ids,
        evaluations=evaluator.evaluations - before,
        steps=samples,
    )
