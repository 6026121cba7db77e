"""Experiment E6 — expected complexity under random identifiers (further work).

The paper's conclusion proposes studying "the expectancy of the running time
on graphs where the permutation of the identifiers is taken uniformly at
random, for both the classic and the new measure".  This experiment provides
that data for the largest-ID algorithm on the cycle:

* the expected *average* radius, compared against the harmonic-number
  representative ``H_n = Theta(log n)`` (the distance to the nearest larger
  identifier has expectation ``Theta(log n)`` under a random permutation
  once boundary effects are accounted for), and
* the expected *classic* (max) radius, which stays ``Theta(n)`` because the
  maximum-identifier vertex always needs ``floor(n/2)``.

So under random identifiers the separation between the two measures
persists: averaging over nodes is what collapses the complexity, not
randomness of the identifiers.
"""

from __future__ import annotations

from typing import Sequence

from repro.algorithms.largest_id import LargestIdAlgorithm
from repro.core.analysis import fit_growth
from repro.core.measures import expected_measures_over_random_ids
from repro.experiments.harness import ExperimentResult
from repro.model.identifiers import random_assignment
from repro.theory.bounds import (
    largest_id_average_upper_bound,
    largest_id_random_ids_expected_average,
    largest_id_worst_case_bound,
)
from repro.topology.cycle import cycle_graph
from repro.utils.rng import SeedLike, spawn_rngs
from repro.utils.tables import Table


def run(
    sizes: Sequence[int] | None = None,
    samples: int = 16,
    small: bool = False,
    seed: SeedLike = 43,
) -> ExperimentResult:
    """Run E6: Monte-Carlo estimates over uniformly random identifier permutations."""
    if sizes is None:
        sizes = [16, 32, 64, 128] if small else [16, 32, 64, 128, 256, 512]
    sizes = list(sizes)
    table = Table(
        columns=(
            "n",
            "samples",
            "expected_avg",
            "se_avg",
            "harmonic_Hn",
            "worst_case_avg_bound",
            "expected_max",
            "max_bound",
        ),
        title="E6: expected measures under random identifiers (largest-ID)",
    )
    result = ExperimentResult(
        experiment_id="E6",
        title="expected complexity under random identifiers",
        claim="expectation over random identifiers keeps the average at Theta(log n) "
        "and the classic measure at Theta(n)",
        table=table,
    )
    algorithm = LargestIdAlgorithm()
    expected_averages = []
    expected_maxima = []
    for n in sizes:
        graph = cycle_graph(n)
        rngs = spawn_rngs(seed, samples)
        assignments = [random_assignment(n, seed=rng.getrandbits(64)) for rng in rngs]
        # The streaming estimator carries standard errors on .average /
        # .maximum; the table reports the uncertainty next to each mean.
        estimate = expected_measures_over_random_ids(graph, algorithm, assignments)
        expected_avg, expected_max = estimate.average.mean, estimate.maximum.mean
        table.add_row(
            n=n,
            samples=samples,
            expected_avg=expected_avg,
            se_avg=estimate.average.std_error,
            harmonic_Hn=largest_id_random_ids_expected_average(n),
            worst_case_avg_bound=largest_id_average_upper_bound(n),
            expected_max=expected_max,
            max_bound=largest_id_worst_case_bound(n),
        )
        expected_averages.append(expected_avg)
        expected_maxima.append(expected_max)
    rows = table.rows
    result.require(
        all(row["expected_avg"] <= row["worst_case_avg_bound"] + 1e-9 for row in rows),
        "the expectation over random identifiers never exceeds the worst-case average bound",
    )
    result.require(
        all(row["expected_max"] >= row["max_bound"] for row in rows),
        "the expected classic measure stays at floor(n/2) (the maximum always sees everything)",
    )
    if len(sizes) >= 3:
        avg_fit = fit_growth(sizes, expected_averages)
        max_fit = fit_growth(sizes, expected_maxima)
        result.add_note(f"expected average growth fit: {avg_fit.best_name}")
        result.add_note(f"expected max growth fit: {max_fit.best_name}")
        result.require(
            avg_fit.is_consistent_with("log", tolerance=2.0)
            or avg_fit.best_name in ("log", "loglog", "constant"),
            "expected average radius grows sub-polynomially (log-like)",
        )
        result.require(
            max_fit.best_name in ("linear", "nlogn"),
            "expected classic measure grows linearly",
        )
    return result
