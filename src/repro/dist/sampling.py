"""Seeded streaming estimators for the measure distributions.

Where :mod:`repro.dist.exact` enumerates, this module *samples*: identifier
assignments are drawn uniformly at random under an explicit seed contract
(same seed, same estimates — bit for bit, at any call site), and every
statistic is maintained in a single streaming pass:

* :class:`StreamingMoments` — Welford's online mean/variance, with standard
  errors and normal confidence intervals;
* :class:`P2Quantile` — the P² algorithm (Jain & Chlamtac 1985), a
  five-marker quantile sketch that never stores the sample;
* :func:`sample_round_distribution` — a Monte-Carlo
  :class:`~repro.dist.distribution.RoundDistribution` (joint counts and
  per-node marginals over the sample) together with
  :class:`MeasureEstimate` uncertainty summaries for both measures;
* :func:`draw_sample_rows` and :class:`DistributionFold` — the two halves
  of the same estimate split around an external kernel evaluation (the
  session batches many cells' draws through one submission), with a fold
  that exports and restores its complete state, so an estimate can resume
  under a larger budget.

All sampling streams through the batch kernel: one
:class:`~repro.kernel.compile.CompiledInstance` per call (or an injected,
session-cached one), with the drawn assignments evaluated in chunks of
:data:`~repro.kernel.compile.DEFAULT_BATCH_ROWS` rows per
:func:`~repro.kernel.compile.simulate_batch` call.  Vectorised algorithms
run at array speed; everything else falls back to the kernel's engine
session (frontier plans plus a shared decision cache), so repeated ball
patterns between permutations are still simulated once.  Either way the
radii — and therefore every estimate — are bit-identical to the
per-assignment :class:`~repro.engine.frontier.FrontierRunner` path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.core.algorithm import BallAlgorithm
from repro.dist.distribution import RoundDistribution
from repro.errors import AnalysisError
from repro.kernel.compile import (
    DEFAULT_BATCH_ROWS,
    NUMPY_MAX_IDENTIFIER,
    CompiledInstance,
    compile_instance,
)
from repro.model.graph import Graph
from repro.model.identifiers import IdentifierAssignment, random_assignment
from repro.obs.spans import span as _obs_span
from repro.utils.rng import SeedLike, make_rng

#: z-score of the two-sided 95% normal confidence interval.
Z_95 = 1.959963984540054


class StreamingMoments:
    """Welford's online algorithm for mean and variance.

    Numerically stable, one pass, O(1) memory; the building block of every
    sampled estimate in this package.

    >>> moments = StreamingMoments()
    >>> for x in [1.0, 2.0, 3.0, 4.0]:
    ...     moments.update(x)
    >>> moments.count, moments.mean, moments.variance
    (4, 2.5, 1.6666666666666667)
    """

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, value: float) -> None:
        """Fold one observation into the running moments."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    def state_dict(self) -> dict:
        """The complete internal state, JSON-safe and lossless.

        Floats survive a JSON round trip bit-for-bit (Python serialises the
        shortest round-tripping representation), so an estimator restored
        with :meth:`from_state` continues *exactly* where this one stopped —
        the foundation of the service's resumable sampling queries.
        """
        return {"count": self.count, "mean": self.mean, "m2": self._m2}

    @classmethod
    def from_state(cls, state: Mapping) -> "StreamingMoments":
        """Rebuild an estimator from :meth:`state_dict` output."""
        moments = cls()
        moments.count = int(state["count"])
        moments.mean = float(state["mean"])
        moments._m2 = float(state["m2"])
        return moments

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two observations)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        return self.variance**0.5

    @property
    def std_error(self) -> float:
        """Standard error of the mean (``std / sqrt(count)``)."""
        if self.count == 0:
            return 0.0
        return self.std / math.sqrt(self.count)

    def ci95(self) -> tuple[float, float]:
        """Normal-approximation 95% confidence interval for the mean."""
        half = Z_95 * self.std_error
        return (self.mean - half, self.mean + half)


class P2Quantile:
    """The P² streaming quantile sketch (Jain & Chlamtac 1985).

    Five markers track the running quantile without storing observations;
    until five samples arrive the exact small-sample quantile is returned.

    >>> sketch = P2Quantile(0.5)
    >>> for x in range(1, 101):
    ...     sketch.update(float(x))
    >>> 45.0 <= sketch.value <= 55.0
    True
    """

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise AnalysisError(f"quantile level must be in (0, 1), got {p!r}")
        self.p = p
        self.count = 0
        self._initial: list[float] = []
        self._q: list[float] = []
        self._n: list[float] = []
        self._desired: list[float] = []
        self._increments = (0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0)

    def update(self, value: float) -> None:
        """Fold one observation into the sketch."""
        self.count += 1
        if self.count <= 5:
            self._initial.append(value)
            self._initial.sort()
            if self.count == 5:
                p = self.p
                self._q = list(self._initial)
                self._n = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
            return
        q, n = self._q, self._n
        if value < q[0]:
            q[0] = value
            cell = 0
        elif value >= q[4]:
            q[4] = value
            cell = 3
        else:
            cell = next(i for i in range(4) if q[i] <= value < q[i + 1])
        for i in range(cell + 1, 5):
            n[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Adjust the three interior markers towards their desired positions.
        for i in range(1, 4):
            drift = self._desired[i] - n[i]
            if (drift >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                drift <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                step = 1.0 if drift >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if q[i - 1] < candidate < q[i + 1]:
                    q[i] = candidate
                else:
                    q[i] = self._linear(i, step)
                n[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        q, n = self._q, self._n
        return q[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        q, n = self._q, self._n
        j = i + int(step)
        return q[i] + step * (q[j] - q[i]) / (n[j] - n[i])

    @property
    def value(self) -> float:
        """The current quantile estimate."""
        if self.count == 0:
            raise AnalysisError("the quantile sketch has seen no observations")
        if self.count <= 5:
            index = min(len(self._initial) - 1, int(self.p * len(self._initial)))
            return self._initial[index]
        return self._q[2]

    def state_dict(self) -> dict:
        """The complete marker state, JSON-safe and lossless (cf.
        :meth:`StreamingMoments.state_dict`)."""
        return {
            "p": self.p,
            "count": self.count,
            "initial": list(self._initial),
            "q": list(self._q),
            "n": list(self._n),
            "desired": list(self._desired),
        }

    @classmethod
    def from_state(cls, state: Mapping) -> "P2Quantile":
        """Rebuild a sketch from :meth:`state_dict` output."""
        sketch = cls(float(state["p"]))
        sketch.count = int(state["count"])
        sketch._initial = [float(x) for x in state["initial"]]
        sketch._q = [float(x) for x in state["q"]]
        sketch._n = [float(x) for x in state["n"]]
        sketch._desired = [float(x) for x in state["desired"]]
        return sketch


@dataclass(frozen=True)
class MeasureEstimate:
    """A sampled estimate of one measure, with its uncertainty.

    ``mean`` carries a standard error and a normal 95% interval; ``median``
    and ``q90`` come from P² sketches maintained in the same pass.
    """

    count: int
    mean: float
    std: float
    std_error: float
    ci95_low: float
    ci95_high: float
    median: float
    q90: float

    @classmethod
    def from_stream(
        cls, moments: StreamingMoments, median: P2Quantile, q90: P2Quantile
    ) -> "MeasureEstimate":
        """Freeze the streaming state into an immutable estimate."""
        low, high = moments.ci95()
        return cls(
            count=moments.count,
            mean=moments.mean,
            std=moments.std,
            std_error=moments.std_error,
            ci95_low=low,
            ci95_high=high,
            median=median.value,
            q90=q90.value,
        )

    def as_dict(self) -> dict:
        """JSON-friendly form (campaign rows, CLI artifacts)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "std_error": self.std_error,
            "ci95_low": self.ci95_low,
            "ci95_high": self.ci95_high,
            "median": self.median,
            "q90": self.q90,
        }


@dataclass(frozen=True)
class SampledDistributionResult:
    """Monte-Carlo distribution plus streaming uncertainty summaries.

    ``distribution`` holds the raw sample counts (total weight = number of
    samples); ``average`` and ``maximum`` are the streaming estimates of the
    two measures, including standard errors — the honest companion to any
    sampled point value.
    """

    distribution: RoundDistribution
    average: MeasureEstimate
    maximum: MeasureEstimate
    samples: int
    seed: Optional[int]

    def as_dict(self) -> dict:
        """JSON-friendly form (campaign rows, CLI artifacts)."""
        return {
            "distribution": self.distribution.as_dict(),
            "average": self.average.as_dict(),
            "maximum": self.maximum.as_dict(),
            "samples": self.samples,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class ScaleSampleResult:
    """Sampling-only measure estimates from the sharded scale path.

    The million-node counterpart of :class:`SampledDistributionResult`:
    the scale executor never materialises per-node radius vectors (a joint
    distribution at n = 10^6 would defeat the memory bound), only exact
    per-row ``(sum, max)`` partials — so this result carries the two
    measure estimates and nothing else.
    """

    average: MeasureEstimate
    maximum: MeasureEstimate
    samples: int
    seed: Optional[int]

    def as_dict(self) -> dict:
        """JSON-friendly form (result rows, CLI artifacts)."""
        return {
            "average": self.average.as_dict(),
            "maximum": self.maximum.as_dict(),
            "samples": self.samples,
            "seed": self.seed,
        }


def fold_scale_stats(row_stats: Sequence, seed: SeedLike = None) -> ScaleSampleResult:
    """Fold sharded per-row measure partials into streaming estimates.

    ``row_stats`` is the row-ordered output of
    :meth:`repro.kernel.shard.ShardedKernelExecutor.sample_measures` — one
    exact ``(sum, max)`` pair per sampled assignment, already merged across
    centre shards.  Folding happens here, in row order, with the same
    estimator stack as :class:`DistributionFold` (Welford moments, P²
    sketches), so the estimates are deterministic at any worker count.
    """
    avg_moments, max_moments = StreamingMoments(), StreamingMoments()
    avg_median, avg_q90 = P2Quantile(0.5), P2Quantile(0.9)
    max_median, max_q90 = P2Quantile(0.5), P2Quantile(0.9)
    count = 0
    for stats in row_stats:
        average = stats.average_radius
        maximum = float(stats.max_radius)
        avg_moments.update(average)
        avg_median.update(average)
        avg_q90.update(average)
        max_moments.update(maximum)
        max_median.update(maximum)
        max_q90.update(maximum)
        count += 1
    if count == 0:
        raise AnalysisError("scale sampling needs at least one row of measures")
    return ScaleSampleResult(
        average=MeasureEstimate.from_stream(avg_moments, avg_median, avg_q90),
        maximum=MeasureEstimate.from_stream(max_moments, max_median, max_q90),
        samples=count,
        seed=seed if isinstance(seed, int) else None,
    )


def _draw_assignments(n: int, samples: int, seed: SeedLike, start: int = 0):
    """Deterministic assignment stream: one master seed, one child per draw.

    Draws ``start+1 .. samples``; the first ``start`` child seeds are drawn
    and dropped, so draw ``k`` never depends on where the stream resumed.
    """
    master = make_rng(seed)
    for _ in range(start):
        master.getrandbits(64)
    for _ in range(samples - start):
        yield random_assignment(n, seed=master.getrandbits(64))


def draw_sample_rows(
    n: int, samples: int, seed: SeedLike = None, start: int = 0
) -> list[tuple[int, ...]]:
    """Draws ``start+1 .. samples`` of the stream behind :func:`sample_round_distribution`.

    Materialises the seeded permutation draws the sampling estimator folds,
    as plain identifier tuples.  ``start`` skips draws already folded into a
    resumed :class:`DistributionFold` by replaying only the master RNG's
    child-seed stream (no permutation is built), so draw ``k`` is the same
    whether the stream is drawn in one go or in several continuations.
    Callers evaluate the rows elsewhere — the session batches many cells'
    draws through one :func:`repro.kernel.compile.simulate_many` submission —
    and fold the radii with a :class:`DistributionFold`, reproducing
    :func:`sample_round_distribution` bit for bit.
    """
    if samples <= 0:
        raise AnalysisError(f"samples must be positive, got {samples}")
    if not 0 <= start <= samples:
        raise AnalysisError(
            f"an estimate that already folded {start} draws cannot continue to a "
            f"total budget of {samples}; the budget must not shrink"
        )
    return [
        assignment.identifiers()
        for assignment in _draw_assignments(n, samples, seed, start)
    ]


#: Document tag and schema version of the portable estimator state
#: (persisted by the service store next to sampled results; see
#: ``docs/service.md``).
ESTIMATOR_STATE_KIND = "repro-estimator-state"
ESTIMATOR_STATE_VERSION = 1


class DistributionFold:
    """Streaming accumulator of every sampling path, resumable across budgets.

    Folds per-row radius vectors in draw order into the joint/marginal
    counts and the streaming moment/quantile estimators, so every caller —
    the chunked single-instance stream and the batched multi-cell path —
    produces the same :class:`SampledDistributionResult` for the same rows.
    ``seed`` records the draw stream the fold belongs to.

    :meth:`state_dict` exports the whole fold as a versioned JSON-safe
    document (:data:`ESTIMATOR_STATE_KIND`); a fold restored with
    :meth:`from_state` and fed draws ``count+1 .. m`` produces bit for bit
    the result of a fresh fold over draws ``1 .. m`` (floats survive a JSON
    round trip exactly).

    >>> from repro.algorithms.largest_id import LargestIdAlgorithm
    >>> from repro.topology.cycle import cycle_graph
    >>> kernel = compile_instance(cycle_graph(6), LargestIdAlgorithm())
    >>> fold = DistributionFold(6, seed=7)
    >>> for radii in kernel.batch_radii(draw_sample_rows(6, 8, seed=7)):
    ...     fold.fold(radii)
    >>> resumed = DistributionFold.from_state(fold.state_dict())
    >>> for radii in kernel.batch_radii(draw_sample_rows(6, 32, seed=7, start=8)):
    ...     resumed.fold(radii)
    >>> resumed.result() == sample_round_distribution(
    ...     cycle_graph(6), LargestIdAlgorithm(), samples=32, seed=7
    ... )
    True
    """

    def __init__(self, n: int, seed: SeedLike = None) -> None:
        self.n = n
        self.seed = seed if isinstance(seed, int) else None
        self.joint: dict[tuple[int, int], int] = {}
        self.marginals: list[dict[int, int]] = [{} for _ in range(n)]
        self.avg_moments, self.max_moments = StreamingMoments(), StreamingMoments()
        self.avg_median, self.avg_q90 = P2Quantile(0.5), P2Quantile(0.9)
        self.max_median, self.max_q90 = P2Quantile(0.5), P2Quantile(0.9)
        self.count = 0

    def fold(self, radii: Sequence[int]) -> None:
        """Fold one draw's per-node radii into the counts and estimators."""
        max_radius = max(radii)
        sum_radius = sum(radii)
        key = (max_radius, sum_radius)
        self.joint[key] = self.joint.get(key, 0) + 1
        for position, radius in enumerate(radii):
            counts = self.marginals[position]
            counts[radius] = counts.get(radius, 0) + 1
        average_radius = sum_radius / self.n
        self.avg_moments.update(average_radius)
        self.max_moments.update(float(max_radius))
        self.avg_median.update(average_radius)
        self.avg_q90.update(average_radius)
        self.max_median.update(float(max_radius))
        self.max_q90.update(float(max_radius))
        self.count += 1

    def state_dict(self) -> dict:
        """The complete fold as a versioned, lossless, JSON-safe document.

        Joint keys become ``[max, sum, count]`` triples; the estimator
        internals come from their own ``state_dict`` methods.
        """
        return {
            "kind": ESTIMATOR_STATE_KIND,
            "version": ESTIMATOR_STATE_VERSION,
            "n": self.n,
            "seed": self.seed,
            "draws": self.count,
            "fold": {
                "n": self.n,
                "count": self.count,
                "joint": [
                    [key[0], key[1], weight] for key, weight in sorted(self.joint.items())
                ],
                "marginals": [sorted(counts.items()) for counts in self.marginals],
                "avg_moments": self.avg_moments.state_dict(),
                "max_moments": self.max_moments.state_dict(),
                "avg_median": self.avg_median.state_dict(),
                "avg_q90": self.avg_q90.state_dict(),
                "max_median": self.max_median.state_dict(),
                "max_q90": self.max_q90.state_dict(),
            },
        }

    @classmethod
    def from_state(cls, state: Mapping) -> "DistributionFold":
        """Restore a fold exported with :meth:`state_dict` (tag and counts checked)."""
        if state.get("kind") != ESTIMATOR_STATE_KIND:
            raise AnalysisError(
                f"not an estimator state document: kind={state.get('kind')!r}"
            )
        if state.get("version") != ESTIMATOR_STATE_VERSION:
            raise AnalysisError(
                f"unsupported estimator state version {state.get('version')!r} "
                f"(this library reads version {ESTIMATOR_STATE_VERSION})"
            )
        inner = state["fold"]
        fold = cls(int(state["n"]), state.get("seed"))
        fold.count = int(inner["count"])
        if fold.count != int(state["draws"]) or int(inner["n"]) != fold.n:
            raise AnalysisError(
                f"estimator state is inconsistent: draws={state['draws']} n={state['n']} "
                f"but the fold counted {fold.count} at n={inner['n']}"
            )
        fold.joint = {
            (int(maximum), int(total)): int(weight)
            for maximum, total, weight in inner["joint"]
        }
        fold.marginals = [
            {int(radius): int(weight) for radius, weight in counts}
            for counts in inner["marginals"]
        ]
        if len(fold.marginals) != fold.n:
            raise AnalysisError(
                f"estimator state carries {len(fold.marginals)} marginals "
                f"for n={fold.n}"
            )
        fold.avg_moments = StreamingMoments.from_state(inner["avg_moments"])
        fold.max_moments = StreamingMoments.from_state(inner["max_moments"])
        fold.avg_median = P2Quantile.from_state(inner["avg_median"])
        fold.avg_q90 = P2Quantile.from_state(inner["avg_q90"])
        fold.max_median = P2Quantile.from_state(inner["max_median"])
        fold.max_q90 = P2Quantile.from_state(inner["max_q90"])
        return fold

    def result(self) -> SampledDistributionResult:
        """Freeze the fold into a :class:`SampledDistributionResult`."""
        if self.count == 0:
            raise AnalysisError("sampling needs at least one radii row")
        distribution = RoundDistribution.from_counts(
            n=self.n, joint=self.joint, node_marginals=self.marginals
        )
        return SampledDistributionResult(
            distribution=distribution,
            average=MeasureEstimate.from_stream(
                self.avg_moments, self.avg_median, self.avg_q90
            ),
            maximum=MeasureEstimate.from_stream(
                self.max_moments, self.max_median, self.max_q90
            ),
            samples=self.count,
            seed=self.seed,
        )


def sample_round_distribution(
    graph: Graph,
    algorithm: BallAlgorithm,
    samples: int = 256,
    seed: SeedLike = None,
    assignments: Optional[Sequence[IdentifierAssignment]] = None,
    kernel: Optional[CompiledInstance] = None,
) -> SampledDistributionResult:
    """Estimate the measure distribution from random identifier assignments.

    With ``assignments=None`` (the normal path), ``samples`` permutations
    are drawn under the explicit ``seed`` — the same seed always yields the
    same estimates.  An explicit assignment sequence overrides the drawing
    (used by the legacy Monte-Carlo call sites).  ``kernel`` optionally
    injects a pre-compiled batch instance for ``(graph, algorithm)`` — the
    session layer passes its cached one — and is compiled on the spot when
    omitted; the sampled stream is evaluated through it in chunks.

    >>> from repro.algorithms.largest_id import LargestIdAlgorithm
    >>> from repro.topology.cycle import cycle_graph
    >>> result = sample_round_distribution(
    ...     cycle_graph(8), LargestIdAlgorithm(), samples=32, seed=7
    ... )
    >>> result.distribution.total_weight
    32
    >>> result.maximum.mean  # the max node always sees half the cycle
    4.0
    >>> result == sample_round_distribution(
    ...     cycle_graph(8), LargestIdAlgorithm(), samples=32, seed=7
    ... )
    True
    """
    if assignments is None:
        if samples <= 0:
            raise AnalysisError(f"samples must be positive, got {samples}")
        stream = _draw_assignments(graph.n, samples, seed)
        seed_record = seed if isinstance(seed, int) else None
    else:
        if not assignments:
            raise AnalysisError("sampling needs at least one assignment")
        stream = iter(assignments)
        seed_record = None
    if kernel is None:
        kernel = compile_instance(graph, algorithm)
    if assignments is not None and kernel.backend == "numpy":
        # Explicit assignments may carry identifiers beyond the numpy
        # backend's int64 range (legal everywhere else); degrade to the
        # stdlib backend for this pass rather than rejecting them — the
        # radii, and therefore the estimates, are identical either way.
        largest = max(
            (
                max(ids.identifiers() if hasattr(ids, "identifiers") else ids)
                for ids in assignments
            ),
            default=0,
        )
        if largest > NUMPY_MAX_IDENTIFIER:
            kernel = compile_instance(graph, algorithm, backend="python")
    n = graph.n
    fold = DistributionFold(n, seed_record)
    # Stream the draws through the kernel in chunks: the whole chunk is one
    # simulate_batch call (array speed for vectorised rules), then the
    # streaming statistics fold each row in draw order — so the estimates
    # are bit-identical to the historical one-assignment-at-a-time loop.
    # Internally drawn rows are permutations of 0..n-1 by construction, so
    # the kernel's per-row re-validation is skipped for them; explicit
    # caller-supplied assignments keep full validation (they may cover the
    # wrong number of positions — the runner path used to reject that).
    trusted = assignments is None
    with _obs_span("dist.sampling", n=n, samples=samples if trusted else None):
        chunk: list[tuple[int, ...]] = []
        for ids in stream:
            chunk.append(
                ids.identifiers() if hasattr(ids, "identifiers") else tuple(ids)
            )
            if len(chunk) >= DEFAULT_BATCH_ROWS:
                for radii in kernel.batch_radii(chunk, pre_validated=trusted):
                    fold.fold(radii)
                chunk.clear()
        if chunk:
            for radii in kernel.batch_radii(chunk, pre_validated=trusted):
                fold.fold(radii)
    return fold.result()
