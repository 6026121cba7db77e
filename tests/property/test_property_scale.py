"""Sharded scale execution is bit-identical at every decomposition.

The scale path's determinism contract: the task grid is fixed by
``row_block`` and ``center_chunk`` alone, rows derive from
``derive_task_seed`` per row index, and the folded partials are associative
— so ``workers`` and the shard shape can never change a single bit of the
measures.  This wall pins that across worker counts {1, 2, 4}, row-block
and centre-chunk sizes, and every streamed topology family, against the
serial single-shard reference.
"""

import pytest

from repro.algorithms.largest_id import predicted_largest_id_radii
from repro.engine.campaign import make_ball_algorithm
from repro.kernel import ShardedKernelExecutor
from repro.kernel.shard import scale_row_ids
from repro.model.identifiers import IdentifierAssignment
from repro.topology.stream import STREAM_TOPOLOGIES, build_csr

SAMPLES = 3
N = 26
SEED = 13


def _executor(csr, **kwargs):
    return ShardedKernelExecutor(
        csr, make_ball_algorithm("largest-id", csr.n), **kwargs
    )


@pytest.fixture(scope="module", params=STREAM_TOPOLOGIES)
def csr(request):
    return build_csr(request.param, N, seed=SEED)


@pytest.fixture(scope="module")
def reference(csr):
    """The single-task decomposition: one row block, one centre chunk."""
    return _executor(csr, workers=1, row_block=SAMPLES, center_chunk=N).sample_measures(
        SAMPLES, seed=SEED
    )


class TestDecompositionInvariance:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_never_changes_the_measures(self, csr, reference, workers):
        stats = _executor(csr, workers=workers).sample_measures(SAMPLES, seed=SEED)
        assert stats == reference

    @pytest.mark.parametrize("row_block", [1, 2, 5])
    @pytest.mark.parametrize("center_chunk", [1, 7, 26, 1000])
    def test_shard_shape_never_changes_the_measures(
        self, csr, reference, row_block, center_chunk
    ):
        stats = _executor(
            csr, row_block=row_block, center_chunk=center_chunk
        ).sample_measures(SAMPLES, seed=SEED)
        assert stats == reference

    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_and_odd_chunks_compose(self, csr, reference, workers):
        stats = _executor(
            csr, workers=workers, row_block=2, center_chunk=9
        ).sample_measures(SAMPLES, seed=SEED)
        assert stats == reference


class TestAgainstTheOracle:
    def test_sampled_rows_match_the_oracle(self, csr):
        """Shard measures equal folding the closed-form largest-ID radii."""
        graph = csr.to_graph()
        executor = _executor(csr, row_block=2, center_chunk=8)
        stats = executor.sample_measures(SAMPLES, seed=SEED)
        for row_stats in stats:
            ids = scale_row_ids(csr.n, SEED, row_stats.row)
            radii = predicted_largest_id_radii(graph, IdentifierAssignment(tuple(ids)))
            assert row_stats.sum_radius == sum(radii.values())
            assert row_stats.max_radius == max(radii.values())
