"""Sharded scale execution: rule parity, registry hooks, probe surface."""

import pytest

from repro.algorithms.largest_id import predicted_largest_id_radii
from repro.algorithms.registry import algorithm_registry
from repro.engine.batch import BatchExecutor
from repro.engine.campaign import make_ball_algorithm
from repro.kernel import (
    SCALE_ALGORITHMS,
    MaxScanScaleRule,
    ShardedKernelExecutor,
    compile_instance,
    numpy_available,
    run_scale_probe,
    scale_rule_for,
)
from repro.kernel.shard import scale_row_ids
from repro.model.identifiers import IdentifierAssignment
from repro.topology.stream import STREAM_TOPOLOGIES, build_csr

BACKENDS = ("python",) + (("numpy",) if numpy_available() else ())


class TestScaleRuleParity:
    @pytest.mark.parametrize("topology", STREAM_TOPOLOGIES)
    def test_scale_radii_match_the_oracle(self, topology):
        """The streamed-CSR rule and the compiled instance equal the closed form."""
        csr = build_csr(topology, 19, seed=4)
        graph = csr.to_graph()
        rule = scale_rule_for(make_ball_algorithm("largest-id", 19), csr)
        instance = compile_instance(graph, make_ball_algorithm("largest-id", 19))
        assert instance.describe()["rule"] == rule.name
        for row_seed in range(4):
            ids = scale_row_ids(19, 7, row_seed)
            radii = predicted_largest_id_radii(graph, IdentifierAssignment(tuple(ids)))
            expected = tuple(radii[v] for v in graph.positions())
            assert rule.batch_radii([ids])[0] == expected
            assert instance.batch_radii([tuple(ids)])[0] == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_several_sweep_blocks_equal_one_row_at_a_time(self, backend):
        csr = build_csr("random-tree", 15, seed=9)
        rule = MaxScanScaleRule(csr.indptr, csr.indices, backend)
        # More rows than one sweep block holds, so the blocks concatenate.
        rule.PAIR_BUDGET = 15 * 16
        rows = [scale_row_ids(15, 11, index) for index in range(40)]
        assert rule.batch_radii(rows) == [rule.batch_radii([row])[0] for row in rows]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_row_folds_to_the_sum_and_max_of_its_radii(self, backend):
        from repro.kernel.shard import _row_stats

        csr = build_csr("random-tree", 12, seed=3)
        rule = MaxScanScaleRule(csr.indptr, csr.indices, backend)
        for row in range(3):
            (radii,) = rule.batch_radii([scale_row_ids(12, 3, row)])
            assert _row_stats(rule, 12, 3, row) == (sum(radii), max(radii))


class TestScaleRowIds:
    def test_numpy_and_stdlib_draw_the_same_permutation(self, monkeypatch):
        import repro.kernel.shard as shard

        if not numpy_available():
            pytest.skip("numpy backend not installed")
        drawn = [scale_row_ids(n, 5, row) for n in (1, 2, 17, 1000) for row in range(3)]
        monkeypatch.setattr(shard, "numpy_available", lambda: False)
        assert [scale_row_ids(n, 5, row) for n in (1, 2, 17, 1000) for row in range(3)] == drawn

    @pytest.mark.parametrize("repeat", [None, 4])
    def test_tied_keys_fall_back_to_the_stable_sort(self, monkeypatch, repeat):
        """The default argsort stands only without ties; on a tie the
        stable one reruns and the permutation equals the stdlib's."""
        import repro.kernel.shard as shard

        if not numpy_available():
            pytest.skip("numpy backend not installed")
        n = 64
        np = shard.numpy_module()
        kinds = []

        class RepeatingRng:
            def getrandbits(self, bits):
                keys = [(i * 7919 % n) % (repeat or n) for i in range(bits // 64)]
                return int.from_bytes(np.asarray(keys, dtype="<u8").tobytes(), "little")

        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def argsort(self, keys, kind=None):
                kinds.append(kind)
                return np.argsort(keys, kind=kind)

        monkeypatch.setattr(shard, "make_rng", lambda seed: RepeatingRng())
        monkeypatch.setattr(shard, "numpy_module", RecordingNumpy)
        drawn = scale_row_ids(n, 1, 0)
        assert kinds == ([None] if repeat is None else [None, "stable"])
        monkeypatch.setattr(shard, "numpy_available", lambda: False)
        assert scale_row_ids(n, 1, 0) == drawn

    @pytest.mark.parametrize("n", [0, 1, 2, 31, 1024])
    def test_a_valid_permutation_and_a_pure_function(self, n):
        ids = scale_row_ids(n, 9, 2)
        assert sorted(ids) == list(range(n))
        assert ids == scale_row_ids(n, 9, 2)
        if n > 2:
            assert ids != scale_row_ids(n, 9, 3)
            assert ids != scale_row_ids(n, 10, 2)


class TestRegistryHooks:
    def test_scale_algorithms_mirror_the_compile_hook(self):
        """SCALE_ALGORITHMS and compile_scale_rule must agree, per name."""
        csr = build_csr("cycle", 8)
        for name in sorted(algorithm_registry()):
            algorithm = make_ball_algorithm(name, 8)
            rule = algorithm.compile_scale_rule(csr)
            if name in SCALE_ALGORITHMS:
                assert rule is not None, f"{name} lost its scale rule"
            else:
                assert rule is None, f"{name} must be added to SCALE_ALGORITHMS"

    def test_unsupported_algorithms_are_rejected(self):
        from repro.errors import ConfigurationError

        csr = build_csr("cycle", 8)
        with pytest.raises(ConfigurationError):
            scale_rule_for(make_ball_algorithm("greedy-mis", 8), csr)


class TestShardedExecutor:
    def test_sample_measures_row_count_and_determinism(self, monkeypatch):
        import repro.kernel.shard as shard

        monkeypatch.setattr(shard, "ROW_BLOCK", 2)
        csr = build_csr("cycle", 32)
        executor = ShardedKernelExecutor(csr, make_ball_algorithm("largest-id", 32))
        stats = executor.sample_measures(3, seed=5)
        assert [row_stats.row for row_stats in stats] == [0, 1, 2]
        assert stats == executor.sample_measures(3, seed=5)
        for row_stats in stats:
            assert row_stats.max_radius == 16  # the cycle's eccentricity
            assert row_stats.average_radius == row_stats.sum_radius / 32

    @pytest.mark.parametrize("row_block", [None, 1, 5])
    def test_a_pooled_query_dispatches_one_task_per_row_block(
        self, monkeypatch, row_block
    ):
        """Tasks are row blocks only: 70 000-node rows are never split by
        centres, so the pool sees one task per ``ROW_BLOCK`` rows."""
        import repro.kernel.shard as shard

        if row_block is not None:
            monkeypatch.setattr(shard, "ROW_BLOCK", row_block)
        samples, n = 6, 70_000
        csr = build_csr("cycle", n)
        executor = ShardedKernelExecutor(
            csr, make_ball_algorithm("largest-id", n), workers=2
        )
        pool = BatchExecutor(2).pool
        before = pool.stats["tasks"]
        stats = executor.sample_measures(samples, seed=3)
        assert pool.stats["tasks"] - before == -(-samples // shard.ROW_BLOCK)
        assert [row_stats.max_radius for row_stats in stats] == [n // 2] * samples

    @pytest.mark.parametrize("topology,published", [("cycle", 0), ("random-tree", 2)])
    def test_only_rules_that_read_adjacency_publish_it(
        self, monkeypatch, topology, published
    ):
        """The ring scan needs only n: a pooled cycle publishes no shared
        memory and never builds its CSR arrays in the parent."""
        import repro.kernel.shard as shard

        monkeypatch.setattr(shard, "ROW_BLOCK", 1)
        n = 1_000
        csr = build_csr(topology, n, seed=2)
        executor = ShardedKernelExecutor(
            csr, make_ball_algorithm("largest-id", n), workers=2
        )
        pool = BatchExecutor(2).pool
        calls = []
        publish = pool.publish
        monkeypatch.setattr(pool, "publish", lambda data: calls.append(data) or publish(data))
        stats = executor.sample_measures(2, seed=3)
        assert len(calls) == published
        if topology == "cycle":
            assert csr._indptr is None
            assert [row_stats.max_radius for row_stats in stats] == [n // 2] * 2

    @pytest.mark.parametrize("row_block", [6, 8])
    def test_a_single_row_block_runs_in_process(self, monkeypatch, row_block):
        """When every sampled row fits one block there is nothing to fan out:
        the pool sees no task and the answer is unchanged."""
        import repro.kernel.shard as shard

        monkeypatch.setattr(shard, "ROW_BLOCK", row_block)
        samples, n = 6, 1_000
        csr = build_csr("cycle", n)
        executor = ShardedKernelExecutor(
            csr, make_ball_algorithm("largest-id", n), workers=2
        )
        pool = BatchExecutor(2).pool
        before = pool.stats["tasks"]
        stats = executor.sample_measures(samples, seed=3)
        assert pool.stats["tasks"] == before
        assert [row_stats.max_radius for row_stats in stats] == [n // 2] * samples

    def test_batch_radii_matches_the_compiled_kernel(self):
        """Each serial row's folded stats equal the compiled kernel's radii."""
        csr = build_csr("gnp", 14, seed=6)
        executor = ShardedKernelExecutor(csr, make_ball_algorithm("largest-id", 14))
        instance = compile_instance(
            csr.to_graph(), make_ball_algorithm("largest-id", 14)
        )
        stats = executor.sample_measures(3, seed=1)
        rows = [tuple(scale_row_ids(14, 1, index)) for index in range(3)]
        for row_stats, radii in zip(stats, instance.batch_radii(rows)):
            assert (row_stats.sum_radius, row_stats.max_radius) == (sum(radii), max(radii))

    def test_describe_reports_the_shard_grid(self):
        csr = build_csr("cycle", 100)
        executor = ShardedKernelExecutor(
            csr, make_ball_algorithm("largest-id", 100), workers=2
        )
        # No worker count: the fan-out changes no row.
        assert executor.describe() == {"rule": "ring-scan", "topology": csr.describe()}


class TestScaleProbe:
    def test_probe_reports_the_full_surface(self):
        probe = run_scale_probe("cycle", 64, samples=2, seed=3)
        for key in (
            "topology",
            "n",
            "m",
            "algorithm",
            "samples",
            "seed",
            "workers",
            "build_s",
            "elapsed_s",
            "nodes_per_s",
            "peak_rss_bytes",
            "avg_mean",
            "max_mean",
            "rule",
        ):
            assert key in probe, key
        assert probe["n"] == 64
        assert probe["max_mean"] == 32.0
        assert probe["nodes_per_s"] > 0
        assert probe["peak_rss_bytes"] > 0


def test_workers_spawned_before_the_first_publish_leak_no_segments():
    """A pooled cycle cell publishes nothing, so its workers start before
    any segment exists; a later pooled cell's segments must still be
    tracked by this process alone (no leak warnings, no early unlink)."""
    import subprocess
    import sys

    script = (
        "from repro.engine.campaign import make_ball_algorithm\n"
        "from repro.kernel import ShardedKernelExecutor\n"
        "from repro.topology.stream import build_csr\n"
        "for topology in ('cycle', 'random-tree'):\n"
        "    csr = build_csr(topology, 2000, seed=1)\n"
        "    executor = ShardedKernelExecutor(\n"
        "        csr, make_ball_algorithm('largest-id', 2000), workers=2)\n"
        "    executor.sample_measures(8, seed=1)\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert "resource_tracker" not in completed.stderr, completed.stderr
