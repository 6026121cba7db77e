"""Sharded scale execution: rule parity, registry hooks, probe surface."""

import pytest

from repro.algorithms.largest_id import predicted_largest_id_radii
from repro.algorithms.registry import algorithm_registry
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
from repro.kernel.rules import segment_stats
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
    def test_segment_stats_fold_a_centre_range(self, backend):
        csr = build_csr("random-tree", 12, seed=3)
        rule = MaxScanScaleRule(csr.indptr, csr.indices, backend)
        rows = [scale_row_ids(12, 3, index) for index in range(3)]
        for radii in rule.block_radii(rows):
            assert segment_stats(radii, 0, 12) == (sum(radii), max(radii))
            assert segment_stats(radii, 4, 9) == (sum(radii[4:9]), max(radii[4:9]))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_partial_center_ranges_compose(self, backend):
        csr = build_csr("random-tree", 15, seed=9)
        rule = MaxScanScaleRule(csr.indptr, csr.indices, backend)
        # More rows than one sweep block holds, so the blocks concatenate.
        rule.PAIR_BUDGET = 15 * 16
        rows = [scale_row_ids(15, 11, index) for index in range(40)]
        whole = rule.batch_radii(rows)
        halves = zip(rule.batch_radii(rows, 0, 7), rule.batch_radii(rows, 7, 15))
        assert [left + right for left, right in halves] == whole


class TestScaleRowIds:
    def test_numpy_and_stdlib_draw_the_same_permutation(self, monkeypatch):
        import repro.kernel.shard as shard

        if not numpy_available():
            pytest.skip("numpy backend not installed")
        drawn = [scale_row_ids(n, 5, row) for n in (1, 2, 17, 1000) for row in range(3)]
        monkeypatch.setattr(shard, "numpy_available", lambda: False)
        assert [scale_row_ids(n, 5, row) for n in (1, 2, 17, 1000) for row in range(3)] == drawn

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
    def test_sample_measures_row_count_and_determinism(self):
        csr = build_csr("cycle", 32)
        executor = ShardedKernelExecutor(csr, make_ball_algorithm("largest-id", 32), center_chunk=10)
        stats = executor.sample_measures(3, seed=5)
        assert len(stats) == 3
        assert stats == executor.sample_measures(3, seed=5)
        for row_stats in stats:
            assert row_stats.max_radius == 16  # the cycle's eccentricity
            assert row_stats.average_radius == row_stats.sum_radius / 32

    def test_batch_radii_matches_the_compiled_kernel(self):
        csr = build_csr("gnp", 14, seed=6)
        executor = ShardedKernelExecutor(csr, make_ball_algorithm("largest-id", 14), center_chunk=5)
        instance = compile_instance(
            csr.to_graph(), make_ball_algorithm("largest-id", 14)
        )
        rows = [tuple(scale_row_ids(14, 1, index)) for index in range(3)]
        assert executor.batch_radii(rows) == instance.batch_radii(rows)

    def test_describe_reports_the_shard_grid(self):
        csr = build_csr("cycle", 100)
        executor = ShardedKernelExecutor(
            csr,
            make_ball_algorithm("largest-id", 100),
            workers=2,
            row_block=3,
            center_chunk=40,
        )
        description = executor.describe()
        assert description["workers"] == 2
        assert description["row_block"] == 3
        assert description["center_chunk"] == 40
        assert description["topology"]["n"] == 100
        assert len(executor._center_ranges()) == 3  # ceil(100 / 40)


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
            "row_block",
            "center_chunk",
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
