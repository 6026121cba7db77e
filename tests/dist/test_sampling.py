"""Tests for the streaming estimators."""

import random
import statistics

import pytest

from repro.algorithms.largest_id import LargestIdAlgorithm
from repro.dist.exact import exact_round_distribution
from repro.core.measures import expected_measures_over_random_ids
from repro.dist.sampling import (
    DistributionFold,
    P2Quantile,
    SampledDistributionResult,
    StreamingMoments,
    draw_sample_rows,
    sample_round_distribution,
)
from repro.errors import AnalysisError
from repro.kernel.backend import numpy_available, numpy_module
from repro.model.identifiers import random_assignment
from repro.topology.cycle import cycle_graph


class TestStreamingMoments:
    def test_matches_the_statistics_module(self):
        rng = random.Random(11)
        values = [rng.uniform(-5, 5) for _ in range(500)]
        moments = StreamingMoments()
        for value in values:
            moments.update(value)
        assert moments.count == 500
        assert moments.mean == pytest.approx(statistics.fmean(values))
        assert moments.variance == pytest.approx(statistics.variance(values))
        assert moments.std_error == pytest.approx(
            statistics.stdev(values) / 500**0.5
        )

    def test_degenerate_counts(self):
        moments = StreamingMoments()
        assert moments.variance == 0.0 and moments.std_error == 0.0
        moments.update(3.0)
        assert moments.mean == 3.0 and moments.variance == 0.0

    def test_ci95_brackets_the_mean(self):
        moments = StreamingMoments()
        for value in (1.0, 2.0, 3.0):
            moments.update(value)
        low, high = moments.ci95()
        assert low < moments.mean < high


class TestP2Quantile:
    def test_small_samples_are_exact(self):
        sketch = P2Quantile(0.5)
        for value in (5.0, 1.0, 3.0):
            sketch.update(value)
        assert sketch.value == 3.0

    def test_tracks_the_true_quantile_of_a_uniform_stream(self):
        rng = random.Random(7)
        values = [rng.random() for _ in range(4000)]
        for p in (0.5, 0.9):
            sketch = P2Quantile(p)
            for value in values:
                sketch.update(value)
            exact = statistics.quantiles(values, n=100)[round(p * 100) - 1]
            assert sketch.value == pytest.approx(exact, abs=0.05)

    def test_constant_stream(self):
        sketch = P2Quantile(0.9)
        for _ in range(50):
            sketch.update(2.0)
        assert sketch.value == 2.0

    def test_validates_the_level_and_empty_reads(self):
        with pytest.raises(AnalysisError, match="quantile level"):
            P2Quantile(1.0)
        with pytest.raises(AnalysisError, match="no observations"):
            _ = P2Quantile(0.5).value


class TestSampleRoundDistribution:
    def test_same_seed_same_result(self, largest_id_algorithm):
        graph = cycle_graph(10)
        first = sample_round_distribution(graph, largest_id_algorithm, samples=32, seed=5)
        second = sample_round_distribution(graph, largest_id_algorithm, samples=32, seed=5)
        assert first == second

    def test_different_seeds_differ(self, largest_id_algorithm):
        graph = cycle_graph(10)
        first = sample_round_distribution(graph, largest_id_algorithm, samples=32, seed=5)
        second = sample_round_distribution(graph, largest_id_algorithm, samples=32, seed=6)
        assert first.distribution != second.distribution

    def test_distribution_counts_the_samples(self, largest_id_algorithm):
        result = sample_round_distribution(
            cycle_graph(8), largest_id_algorithm, samples=40, seed=1
        )
        assert result.samples == 40
        assert result.distribution.total_weight == 40
        assert result.average.count == 40
        # On the cycle the max node always sees half the ring.
        assert result.maximum.mean == 4.0
        assert result.maximum.std == 0.0

    def test_estimates_agree_with_exact_within_ci(self, largest_id_algorithm):
        graph = cycle_graph(7)
        exact = exact_round_distribution(graph, largest_id_algorithm)
        sampled = sample_round_distribution(
            graph, largest_id_algorithm, samples=400, seed=2
        )
        true_mean = exact.distribution.mean_average()
        assert abs(sampled.average.mean - true_mean) <= 4 * sampled.average.std_error

    def test_explicit_assignments_override_drawing(self, largest_id_algorithm):
        graph = cycle_graph(8)
        assignments = [random_assignment(8, seed=s) for s in range(6)]
        result = sample_round_distribution(
            graph, largest_id_algorithm, assignments=assignments
        )
        assert result.samples == 6
        assert result.seed is None

    def test_rejects_empty_inputs(self, largest_id_algorithm):
        graph = cycle_graph(6)
        with pytest.raises(AnalysisError, match="at least one assignment"):
            sample_round_distribution(graph, largest_id_algorithm, assignments=[])
        with pytest.raises(AnalysisError, match="samples must be positive"):
            sample_round_distribution(graph, largest_id_algorithm, samples=0)

    def test_as_dict_is_json_friendly(self, largest_id_algorithm):
        import json

        result = sample_round_distribution(
            cycle_graph(6), largest_id_algorithm, samples=8, seed=3
        )
        document = result.as_dict()
        assert json.loads(json.dumps(document)) == document
        assert document["distribution"]["kind"] == "round-distribution"
        assert document["average"]["count"] == 8


class TestExpectedMeasures:
    def test_returns_the_sampled_result(self, largest_id_algorithm):
        graph = cycle_graph(8)
        result = expected_measures_over_random_ids(
            graph, largest_id_algorithm, samples=16, seed=1
        )
        assert isinstance(result, SampledDistributionResult)
        assert result == sample_round_distribution(
            graph, largest_id_algorithm, samples=16, seed=1
        )

    def test_carries_standard_errors(self, largest_id_algorithm):
        result = expected_measures_over_random_ids(
            cycle_graph(8), largest_id_algorithm, samples=16, seed=1
        )
        assert result.average.std_error > 0
        assert result.average.ci95_low < result.average.mean < result.average.ci95_high

    def test_survives_copy_and_pickle(self, largest_id_algorithm):
        import copy
        import pickle

        result = expected_measures_over_random_ids(
            cycle_graph(8), largest_id_algorithm, samples=8, seed=1
        )
        for clone in (copy.copy(result), pickle.loads(pickle.dumps(result))):
            assert clone.average == result.average
            assert clone.maximum == result.maximum


class TestResumableFold:
    def _fold(self, samples, seed=7, state=None):
        graph, algorithm = cycle_graph(6), LargestIdAlgorithm()
        from repro.kernel.compile import compile_instance

        kernel = compile_instance(graph, algorithm)
        fold = DistributionFold(6, seed) if state is None else DistributionFold.from_state(state)
        for radii in kernel.batch_radii(draw_sample_rows(6, samples, seed, start=fold.count)):
            fold.fold(radii)
        return fold

    def test_rows_drawn_in_continuations_equal_one_draw(self):
        def rows(block):  # a numpy matrix or a list of tuples, as plain tuples
            return [tuple(map(int, row)) for row in block]

        whole = rows(draw_sample_rows(6, 20, seed=3))
        assert rows(draw_sample_rows(6, 8, seed=3)) + rows(draw_sample_rows(6, 20, seed=3, start=8)) == whole
        assert rows(draw_sample_rows(6, 20, seed=3, start=20)) == []

    def test_state_round_trip_through_json_resumes_bit_for_bit(self):
        import json

        state = json.loads(json.dumps(self._fold(8).state_dict()))
        resumed = self._fold(32, state=state)
        assert resumed.state_dict()["draws"] == 32
        assert resumed.result() == sample_round_distribution(
            cycle_graph(6), LargestIdAlgorithm(), samples=32, seed=7
        )

    def test_shrinking_budget_is_rejected(self):
        with pytest.raises(AnalysisError, match="must not shrink"):
            draw_sample_rows(6, 4, seed=3, start=8)

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"kind": "repro-sweep"}, "not an estimator state"),
            ({"version": 99}, "unsupported estimator state version"),
            ({"draws": 5}, "inconsistent"),
        ],
    )
    def test_foreign_or_inconsistent_states_are_rejected(self, change, match):
        state = dict(self._fold(8).state_dict(), **change)
        with pytest.raises(AnalysisError, match=match):
            DistributionFold.from_state(state)

    def test_session_rejects_a_fold_from_another_draw_stream(self):
        from repro.api import Query, Session

        query = Query(mode="distribution", topologies="cycle", sizes=6, methods="sample", samples=16)
        folds = {"cycle|6|largest-id": self._fold(8, seed=12345)}
        with pytest.raises(AnalysisError, match="cannot continue"):
            Session().run(query, folds=folds)


BACKENDS = ("python",) + (("numpy",) if numpy_available() else ())

#: Radii rows of a 5-node instance: row 2 gives position 0 a radius no
#: earlier row reached, row 4 does the same at position 3.
RADII = [
    [1, 1, 2, 1, 1],
    [1, 3, 1, 1, 2],
    [4, 1, 1, 1, 1],
    [2, 2, 2, 2, 2],
    [1, 1, 1, 5, 1],
    [1, 2, 1, 1, 3],
]


class TestFoldBlock:
    def _row_by_row(self):
        fold = DistributionFold(5, seed=9)
        for row in RADII:
            fold.fold(row)
        return fold

    def _blocks(self, as_matrix):
        # A 0-row block sits between two non-empty ones.
        bounds = [(0, 2), (2, 2), (2, 5), (5, 6)]
        if as_matrix:
            if not numpy_available():
                pytest.skip("numpy backend not installed")
            np = numpy_module()
            return [np.asarray(RADII[a:b], dtype=np.int64).reshape(b - a, 5) for a, b in bounds]
        return [RADII[a:b] for a, b in bounds]

    @pytest.mark.parametrize("as_matrix", [False, True])
    def test_block_fold_equals_the_row_by_row_fold(self, as_matrix):
        from repro.utils.io import encode_json

        expected = self._row_by_row()
        fold = DistributionFold(5, seed=9)
        for block in self._blocks(as_matrix):
            fold.fold_block(block)
        assert fold.state_dict() == expected.state_dict()
        assert fold.result() == expected.result()
        assert encode_json(fold.result().as_dict()) == encode_json(expected.result().as_dict())

    def test_a_zero_row_block_changes_nothing(self):
        fold = DistributionFold(5, seed=9)
        for block in self._blocks(False)[1:2] + (self._blocks(True)[1:2] if numpy_available() else []):
            fold.fold_block(block)
        assert fold.state_dict() == DistributionFold(5, seed=9).state_dict()


class TestSampleAndScaleModesDrawTheSameRows:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", [64, 1000])
    def test_per_row_sum_and_max_match_the_scale_executor(self, n, backend, monkeypatch):
        import repro.kernel.backend as kernel_backend
        import repro.kernel.shard as shard
        from repro.kernel.compile import compile_instance
        from repro.topology.stream import build_csr

        monkeypatch.setattr(kernel_backend, "_default_backend", backend)
        if backend == "python":
            monkeypatch.setattr(shard, "numpy_available", lambda: False)
        samples, seed = 10, 4242
        kernel = compile_instance(cycle_graph(n), LargestIdAlgorithm())
        radii = kernel.batch_radii(draw_sample_rows(n, samples, seed), pre_validated=True)
        sampled = [(int(sum(row)), int(max(row))) for row in radii]
        executor = shard.ShardedKernelExecutor(build_csr("cycle", n), LargestIdAlgorithm())
        scaled = [(s.sum_radius, s.max_radius) for s in executor.sample_measures(samples, seed)]
        assert kernel.backend == backend
        assert sampled == scaled
