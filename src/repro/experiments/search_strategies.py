"""Experiment E12 — the adversary-search portfolio on the cycle.

Both measures of the paper are worst cases over the identifier assignment,
so the quality/cost trade-off of the *outer search* is itself an
experimental question.  This experiment races the search generations on
small cycles, where the legacy exhaustive adversary still provides ground
truth:

* ``exhaustive``        — the legacy full ``n!`` enumeration, scored in
  kernel cohorts (its ``cache_hit_rate``, like every row's, reads the
  witness's one engine run);
* ``pruned-exhaustive`` — canonical enumeration (one assignment per
  automorphism class of the cycle, ``n!/2n`` candidates), the one exact
  search (``branch-and-bound`` is another name for it);
* ``portfolio``         — the heuristic strategy portfolio (lower bound).

The shape checks assert what the search subsystem guarantees: the exact
search agrees with the legacy optimum, the pruned search does factor-of-
group less enumeration work, and the heuristic portfolio never reports a
value above the certified optimum (on these sizes it in fact attains it).
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.algorithms.largest_id import LargestIdAlgorithm
from repro.core.adversary import ExhaustiveAdversary
from repro.experiments.harness import ExperimentResult
from repro.search.adversaries import PortfolioAdversary, PrunedExhaustiveAdversary
from repro.topology.cycle import cycle_graph
from repro.utils.tables import Table


def run(sizes: Sequence[int] | None = None, small: bool = False) -> ExperimentResult:
    """Run E12 for the given cycle sizes."""
    if sizes is None:
        sizes = [6] if small else [7, 8]
    sizes = list(sizes)
    table = Table(
        columns=(
            "n",
            "adversary",
            "value",
            "exact",
            "evaluations",
            "wall_ms",
            "cache_hit_rate",
        ),
        title="E12: adversary search generations on the cycle (objective: average)",
    )
    result = ExperimentResult(
        experiment_id="E12",
        title="adversary search portfolio",
        claim=(
            "symmetry-pruned exact search matches the legacy exhaustive optimum "
            "with a fraction of the evaluations; the heuristic portfolio attains it"
        ),
        table=table,
    )
    algorithm = LargestIdAlgorithm()
    adversaries = (
        ("exhaustive", lambda seed: ExhaustiveAdversary()),
        ("pruned-exhaustive", lambda seed: PrunedExhaustiveAdversary()),
        ("portfolio", lambda seed: PortfolioAdversary(seed=seed)),
    )
    exact_by_n: dict[int, float] = {}
    rows_by_key: dict[tuple[int, str], dict] = {}
    for n in sizes:
        graph = cycle_graph(n)
        for name, build in adversaries:
            adversary = build(n)
            started = time.perf_counter()
            outcome = adversary.maximise(graph, algorithm, objective="average")
            elapsed_ms = (time.perf_counter() - started) * 1e3
            cache = outcome.cache_stats
            row = {
                "n": n,
                "adversary": name,
                "value": round(outcome.value, 6),
                "exact": outcome.exact,
                "evaluations": outcome.evaluations,
                "wall_ms": round(elapsed_ms, 2),
                "cache_hit_rate": round(cache.hit_rate, 3) if cache else 0.0,
            }
            table.add_row(**row)
            rows_by_key[(n, name)] = row
            if name == "exhaustive":
                exact_by_n[n] = outcome.value
    result.require(
        all(
            rows_by_key[(n, "pruned-exhaustive")]["value"] == round(exact_by_n[n], 6)
            for n in sizes
        ),
        "the exact search reports the legacy exhaustive optimum",
    )
    result.require(
        all(
            rows_by_key[(n, "pruned-exhaustive")]["evaluations"]
            * 4  # the cycle's automorphism group has order 2n >= 12 here
            <= rows_by_key[(n, "exhaustive")]["evaluations"]
            for n in sizes
        ),
        "canonical enumeration does at most 1/4 of the legacy evaluations",
    )
    result.require(
        all(
            rows_by_key[(n, "portfolio")]["value"] <= round(exact_by_n[n], 6)
            for n in sizes
        ),
        "the heuristic portfolio never exceeds the certified optimum",
    )
    result.require(
        all(
            rows_by_key[(n, "portfolio")]["value"] == round(exact_by_n[n], 6)
            for n in sizes
        ),
        "the heuristic portfolio attains the optimum on these sizes",
    )
    return result
