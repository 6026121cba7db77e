"""The paper's primary contribution: complexity measures for LOCAL algorithms.

The core package defines the ball-based algorithm interface
(:class:`~repro.core.algorithm.BallAlgorithm`), the deterministic runner that
records the radius at which every node outputs, the *average* and *classic*
complexity measures (worst case over identifier assignments), adversaries
that search for bad identifier assignments, output certifiers, and the
growth-rate analysis used to compare measured series against the paper's
asymptotic claims.
"""

from repro.core.algorithm import BallAlgorithm, FunctionBallAlgorithm
from repro.core.adversary import (
    AdversaryResult,
    ExhaustiveAdversary,
    RandomSearchAdversary,
    RotationAdversary,
)
from repro.core.analysis import GrowthFit, fit_growth, growth_candidates, ratio_series
from repro.core.certification import (
    certify,
    certify_largest_id,
    certify_leader_election,
    certify_maximal_independent_set,
    certify_proper_coloring,
    register_certifier,
)
from repro.core.measures import (
    AVERAGE_MEASURE,
    CLASSIC_MEASURE,
    MEASURES,
    SUM_MEASURE,
    ComplexityReport,
    Measure,
    average_complexity,
    classic_complexity,
    exact_measure_distribution,
    expected_measures_over_random_ids,
    get_measure,
    sampled_measure_distribution,
)
from repro.core.runner import run_ball_algorithm

__all__ = [
    "AVERAGE_MEASURE",
    "AdversaryResult",
    "BallAlgorithm",
    "CLASSIC_MEASURE",
    "ComplexityReport",
    "ExhaustiveAdversary",
    "FunctionBallAlgorithm",
    "GrowthFit",
    "MEASURES",
    "Measure",
    "RandomSearchAdversary",
    "RotationAdversary",
    "SUM_MEASURE",
    "average_complexity",
    "certify",
    "certify_largest_id",
    "certify_leader_election",
    "certify_maximal_independent_set",
    "certify_proper_coloring",
    "classic_complexity",
    "exact_measure_distribution",
    "expected_measures_over_random_ids",
    "fit_growth",
    "get_measure",
    "sampled_measure_distribution",
    "growth_candidates",
    "ratio_series",
    "ratio_series",
    "register_certifier",
    "run_ball_algorithm",
]
