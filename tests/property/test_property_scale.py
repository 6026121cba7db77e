"""Sharded scale execution is bit-identical at every decomposition.

The scale path's determinism contract: the task grid is fixed by
``ROW_BLOCK`` alone, rows derive from ``derive_task_seed`` per row index,
and each row folds to an exact integer ``(sum, max)`` — so neither
``workers`` nor the row block can change a single bit of the measures.
This wall pins that across worker counts {1, 2, 4} × row blocks {1, 2, 5}
and every streamed topology family, against the serial single-block
reference.
"""

import pytest

import repro.kernel.shard as shard
from repro.algorithms.largest_id import predicted_largest_id_radii
from repro.engine.campaign import make_ball_algorithm
from repro.kernel import ShardedKernelExecutor
from repro.kernel.shard import scale_row_ids
from repro.model.identifiers import IdentifierAssignment
from repro.topology.stream import STREAM_TOPOLOGIES, build_csr

SAMPLES = 7
N = 26
SEED = 13


def _measures(csr, workers=1):
    executor = ShardedKernelExecutor(
        csr, make_ball_algorithm("largest-id", csr.n), workers=workers
    )
    return executor.sample_measures(SAMPLES, seed=SEED)


@pytest.fixture(scope="module", params=STREAM_TOPOLOGIES)
def csr(request):
    return build_csr(request.param, N, seed=SEED)


@pytest.fixture(scope="module")
def reference(csr):
    """The single-task decomposition: every sampled row in one block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shard, "ROW_BLOCK", SAMPLES)
        return _measures(csr)


class TestDecompositionInvariance:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_never_changes_the_measures(self, csr, reference, workers):
        """The production ``ROW_BLOCK`` splits ``SAMPLES`` into a full and a
        partial block; any worker count gives the reference."""
        assert _measures(csr, workers=workers) == reference

    @pytest.mark.parametrize("samples", [1, 3, 4, 5, 6])
    def test_fewer_samples_are_a_prefix_of_more(self, csr, reference, samples):
        """Rows are seeded by their index, not by their block, so a shorter
        run is a prefix of a longer one wherever the blocks end."""
        executor = ShardedKernelExecutor(csr, make_ball_algorithm("largest-id", csr.n))
        assert executor.sample_measures(samples, seed=SEED) == reference[:samples]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("row_block", [1, 2, 5])
    def test_workers_and_row_blocks_never_change_the_measures(
        self, monkeypatch, csr, reference, workers, row_block
    ):
        monkeypatch.setattr(shard, "ROW_BLOCK", row_block)
        assert _measures(csr, workers=workers) == reference


class TestAgainstTheOracle:
    def test_sampled_rows_match_the_oracle(self, monkeypatch, csr):
        """Shard measures equal folding the closed-form largest-ID radii."""
        monkeypatch.setattr(shard, "ROW_BLOCK", 2)
        graph = csr.to_graph()
        for row_stats in _measures(csr):
            ids = scale_row_ids(csr.n, SEED, row_stats.row)
            radii = predicted_largest_id_radii(graph, IdentifierAssignment(tuple(ids)))
            assert row_stats.sum_radius == sum(radii.values())
            assert row_stats.max_radius == max(radii.values())
