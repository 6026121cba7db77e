"""Distributional measures: beyond worst-case scalars.

The paper compares two *scalar* measures — worst cases over the identifier
assignment — but its follow-up questions (and the follow-up papers tracked
in ``PAPERS.md``) ask about the whole **distribution** of running times
when the assignment varies.  This package is that distribution layer:

* :mod:`repro.dist.distribution` — the value types:
  :class:`~repro.dist.distribution.DiscreteDistribution` (weighted scalar
  distribution with exact integer weights, moments, quantiles, pooling) and
  :class:`~repro.dist.distribution.RoundDistribution` (the joint
  ``(max_radius, sum_radius)`` distribution with per-node marginals and a
  JSON round trip);
* :mod:`repro.dist.exact` — the exact joint distribution over all ``n!``
  assignments from only ``n!/|Aut|`` simulations: one representative per
  canonical assignment class (via the symmetry-pruned enumerator of
  :mod:`repro.search`), each weighted by the class multiplicity ``|Aut|``,
  with a :class:`~repro.dist.exact.DistributionCertificate` making the
  claim auditable;
* :mod:`repro.dist.sampling` — deterministic seeded streaming estimators
  (Welford moments, P² quantile sketches, standard errors and normal
  confidence intervals) for instances where ``n!/|Aut|`` is out of reach.

The campaign grid (``repro sweep``'s sibling ``repro dist``), experiment
E13 and the benchmarks build on this package; see ``docs/distributions.md``
for a worked exact-vs-sampled example and the JSON schemas.
"""

from repro.dist.distribution import DiscreteDistribution, RoundDistribution, ascii_pmf
from repro.dist.exact import (
    DistributionCertificate,
    ExactDistributionResult,
    brute_force_round_distribution,
    exact_round_distribution,
)
from repro.dist.sampling import (
    DistributionFold,
    MeasureEstimate,
    P2Quantile,
    SampledDistributionResult,
    ScaleSampleResult,
    StreamingMoments,
    draw_sample_rows,
    fold_scale_stats,
    sample_round_distribution,
)

__all__ = [
    "DiscreteDistribution",
    "DistributionCertificate",
    "DistributionFold",
    "ExactDistributionResult",
    "MeasureEstimate",
    "P2Quantile",
    "RoundDistribution",
    "SampledDistributionResult",
    "ScaleSampleResult",
    "StreamingMoments",
    "ascii_pmf",
    "brute_force_round_distribution",
    "draw_sample_rows",
    "fold_scale_stats",
    "exact_round_distribution",
    "sample_round_distribution",
]
