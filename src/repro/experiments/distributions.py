"""Experiment E13 — the distribution of both measures over identifier assignments.

The paper's measures are worst cases over the identifier assignment; the
follow-up works it motivated ("How long does an *ordinary* node with an
*ordinary* identifier take?") ask for the whole **distribution**.  This
experiment computes it both ways and compares:

* **exactly**, over all ``n!`` assignments, via the orbit-weighted
  canonical enumeration of :mod:`repro.dist.exact` (certificate included,
  total weight exactly ``n!``), and
* **sampled**, via the seeded streaming estimators of
  :mod:`repro.dist.sampling` (standard errors included),

for the largest-ID algorithm on cycles and random trees.  The headline
shape it reproduces: **the average measure concentrates while the max does
not** — on the cycle the classic measure's distribution is a point mass at
``floor(n/2)`` (every assignment pays the worst case), whereas the average
measure's mass sits in a narrow band at the ``Theta(log n)`` scale, far
below its own worst case; on trees the average's spread is strictly smaller
than the max's.  Sampled estimates agree with the exact distributions
within their confidence intervals under a fixed seed.
"""

from __future__ import annotations

from typing import Sequence

from repro.algorithms.largest_id import LargestIdAlgorithm
from repro.core.measures import exact_measure_distribution, sampled_measure_distribution
from repro.dist.distribution import ascii_pmf
from repro.engine.campaign import build_topology
from repro.experiments.harness import ExperimentResult
from repro.theory.bounds import largest_id_average_upper_bound
from repro.topology.cycle import cycle_graph
from repro.utils.tables import Table

#: Fixed tree seed: E13 compares methods on one deterministic instance.
TREE_SEED = 7


def run(
    sizes: Sequence[int] | None = None,
    samples: int = 192,
    small: bool = False,
    seed: int = 5,
) -> ExperimentResult:
    """Run E13: exact vs sampled measure distributions on cycles and trees."""
    if sizes is None:
        sizes = [5, 6] if small else [6, 7, 8]
    sizes = list(sizes)
    table = Table(
        columns=(
            "family",
            "n",
            "method",
            "weight",
            "avg_mean",
            "avg_std",
            "avg_q90",
            "avg_se",
            "avg_worst_bound",
            "max_mean",
            "max_std",
        ),
        title="E13: measure distributions over identifier assignments (largest-ID)",
    )
    result = ExperimentResult(
        experiment_id="E13",
        title="measure distributions over identifier assignments",
        claim=(
            "over all n! assignments the average measure concentrates in a narrow "
            "band far below the classic measure, which stays pinned at its worst "
            "case; sampling reproduces the exact distribution within its CIs"
        ),
        table=table,
    )
    algorithm = LargestIdAlgorithm()
    families = (
        ("cycle", lambda n: cycle_graph(n)),
        ("tree", lambda n: build_topology("random-tree", n, TREE_SEED + n)),
    )
    exact_by_key: dict[tuple[str, int], dict] = {}
    sampled_by_key: dict[tuple[str, int], dict] = {}
    last_exact = None
    for family, build in families:
        for n in sizes:
            graph = build(n)
            exact = exact_measure_distribution(graph, algorithm)
            distribution = exact.distribution
            average = distribution.average_distribution()
            maximum = distribution.max_distribution()
            exact_row = {
                "family": family,
                "n": n,
                "method": "exact",
                "weight": distribution.total_weight,
                "avg_mean": average.mean(),
                "avg_std": average.std(),
                "avg_q90": float(average.quantile(0.9)),
                "avg_se": 0.0,
                "avg_worst_bound": largest_id_average_upper_bound(n)
                if family == "cycle"
                else float(average.max()),
                "max_mean": maximum.mean(),
                "max_std": maximum.std(),
            }
            table.add_row(**exact_row)
            exact_by_key[(family, n)] = exact_row
            if family == "cycle":
                last_exact = (graph.name, exact)
            sampled = sampled_measure_distribution(
                graph, algorithm, samples=samples, seed=seed + n
            )
            sampled_average = sampled.distribution.average_distribution()
            sampled_max = sampled.distribution.max_distribution()
            sampled_row = {
                "family": family,
                "n": n,
                "method": "sample",
                "weight": sampled.distribution.total_weight,
                "avg_mean": sampled.average.mean,
                "avg_std": sampled.average.std,
                "avg_q90": float(sampled_average.quantile(0.9)),
                "avg_se": sampled.average.std_error,
                "avg_worst_bound": exact_row["avg_worst_bound"],
                "max_mean": sampled.maximum.mean,
                "max_std": sampled_max.std(),
            }
            table.add_row(**sampled_row)
            sampled_by_key[(family, n)] = sampled_row
    # ------------------------------------------------------------------
    # shape checks: the paper's story, now at the distribution level
    # ------------------------------------------------------------------
    result.require(
        all(row["weight"] == _factorial(row["n"]) for row in exact_by_key.values()),
        "every exact distribution covers all n! assignments (total weight n!)",
    )
    result.require(
        all(
            row["max_std"] == 0.0 and row["max_mean"] == row["n"] // 2
            for (family, _), row in exact_by_key.items()
            if family == "cycle"
        ),
        "on the cycle the classic measure is a point mass at floor(n/2): "
        "no assignment escapes the worst case",
    )
    result.require(
        all(
            row["avg_std"] <= 0.15 * row["avg_mean"]
            and row["avg_q90"] < row["max_mean"]
            for (family, _), row in exact_by_key.items()
            if family == "cycle"
        ),
        "on the cycle the average measure concentrates: its spread stays below "
        "15% of its mean and its 90th percentile below the classic value",
    )
    result.require(
        all(
            row["avg_std"] < row["max_std"]
            for (family, _), row in exact_by_key.items()
            if family == "tree"
        ),
        "on trees the average measure is strictly more concentrated than the max",
    )
    result.require(
        all(
            abs(sampled_by_key[key]["avg_mean"] - row["avg_mean"])
            <= max(4.0 * sampled_by_key[key]["avg_se"], 1e-9)
            for key, row in exact_by_key.items()
        ),
        "sampled means match the exact means within 4 standard errors (fixed seed)",
    )
    if len(sizes) >= 2:
        ratios = [
            exact_by_key[("cycle", n)]["avg_mean"] / exact_by_key[("cycle", n)]["max_mean"]
            for n in sizes
        ]
        result.require(
            ratios[-1] <= ratios[0] + 1e-9,
            "the exact mean-average/mean-max ratio does not grow with n",
        )
    if last_exact is not None:
        name, exact = last_exact
        result.add_note(
            f"exact pmf of the average measure on {name} "
            f"(weight {exact.certificate.total_weight} from "
            f"{exact.certificate.canonical_leaves} canonical classes):\n"
            + ascii_pmf(exact.distribution.average_distribution())
        )
    return result


def _factorial(n: int) -> int:
    import math

    return math.factorial(n)
