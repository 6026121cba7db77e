"""The benchmark-regression guard, and the committed artifacts it gates."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = REPO_ROOT / "scripts"

sys.path.insert(0, str(SCRIPTS))

import check_bench_floors  # noqa: E402


class TestCommittedArtifacts:
    def test_every_committed_artifact_meets_its_floor(self):
        assert check_bench_floors.main(["--quiet"]) == 0

    def test_every_artifact_kind_is_known_to_the_guard(self):
        # Some artifacts are committed (api, dist, kernel), others are
        # regenerated per run (engine, search, gitignored); whatever is on
        # disk must be a kind the guard knows how to gate.
        kinds = {
            json.loads(path.read_text())["kind"]
            for path in REPO_ROOT.glob("BENCH_*.json")
        }
        assert kinds
        assert kinds <= set(check_bench_floors.GATED_RESULTS)


class TestGuardLogic:
    def _write(self, tmp_path, name, document):
        (tmp_path / name).write_text(json.dumps(document))

    def test_detects_a_regressed_speedup(self, tmp_path):
        self._write(
            tmp_path,
            "BENCH_engine.json",
            {
                "kind": "repro-bench-engine",
                "min_speedup": 3.0,
                "results": {
                    "exhaustive_ring_n7": {"speedup": 1.2},
                    "sampling_sweep_n64": {"speedup": 4.0},
                },
            },
        )
        assert check_bench_floors.main(["--root", str(tmp_path), "--quiet"]) == 1

    def test_detects_a_missing_required_entry(self, tmp_path):
        self._write(
            tmp_path,
            "BENCH_kernel.json",
            {"kind": "repro-bench-kernel", "results": {}},
        )
        assert check_bench_floors.main(["--root", str(tmp_path), "--quiet"]) == 1

    def test_optional_entries_may_be_absent(self, tmp_path):
        # The kernel's numpy legs are absent on numpy-free machines; only
        # the stdlib entries are mandatory.
        self._write(
            tmp_path,
            "BENCH_kernel.json",
            {
                "kind": "repro-bench-kernel",
                "results": {
                    "batched_sampling_python": {"speedup": 2.0, "min_speedup": 1.0},
                    "vector_rule_python_largest-id": {
                        "speedup": 2.0,
                        "min_speedup": 1.0,
                    },
                },
            },
        )
        assert check_bench_floors.main(["--root", str(tmp_path), "--quiet"]) == 0

    def test_entry_floor_overrides_the_artifact_floor(self, tmp_path):
        self._write(
            tmp_path,
            "BENCH_kernel.json",
            {
                "kind": "repro-bench-kernel",
                "results": {
                    "batched_sampling_python": {"speedup": 0.9, "min_speedup": 1.0},
                },
            },
        )
        assert check_bench_floors.main(["--root", str(tmp_path), "--quiet"]) == 1

    def test_unknown_kind_is_flagged(self, tmp_path):
        self._write(tmp_path, "BENCH_new.json", {"kind": "repro-bench-new", "results": {}})
        assert check_bench_floors.main(["--root", str(tmp_path), "--quiet"]) == 1

    @pytest.mark.parametrize("quiet", [True, False])
    def test_empty_root_fails(self, tmp_path, quiet, capsys):
        argv = ["--root", str(tmp_path)] + (["--quiet"] if quiet else [])
        assert check_bench_floors.main(argv) == 1

    def _scale_document(self, **overrides):
        entry = {
            "nodes_per_s": 100_000.0,
            "min_nodes_per_s": 5_000.0,
            "peak_rss_bytes": 80 * 1024**2,
            "max_rss_bytes": 2 * 1024**3,
            "rel_nodes_per_s": 1.0,
            "min_rel_nodes_per_s": 0.0,
        }
        entry.update(overrides)
        return {"kind": "repro-bench-scale", "results": {"scale_cycle_n10000": entry}}

    def test_scale_artifact_gates_on_throughput_and_rss(self, tmp_path):
        self._write(tmp_path, "BENCH_scale.json", self._scale_document())
        assert check_bench_floors.main(["--root", str(tmp_path), "--quiet"]) == 0

    def test_scale_regressed_throughput_fails(self, tmp_path):
        self._write(
            tmp_path, "BENCH_scale.json", self._scale_document(nodes_per_s=400.0)
        )
        assert check_bench_floors.main(["--root", str(tmp_path), "--quiet"]) == 1

    def test_scale_rss_over_ceiling_fails(self, tmp_path):
        self._write(
            tmp_path,
            "BENCH_scale.json",
            self._scale_document(peak_rss_bytes=3 * 1024**3),
        )
        assert check_bench_floors.main(["--root", str(tmp_path), "--quiet"]) == 1

    def test_scale_entry_missing_a_bound_fails(self, tmp_path):
        document = self._scale_document()
        del document["results"]["scale_cycle_n10000"]["max_rss_bytes"]
        self._write(tmp_path, "BENCH_scale.json", document)
        assert check_bench_floors.main(["--root", str(tmp_path), "--quiet"]) == 1

    def test_scale_collapsed_relative_rate_fails(self, tmp_path):
        self._write(
            tmp_path,
            "BENCH_scale.json",
            self._scale_document(rel_nodes_per_s=0.3, min_rel_nodes_per_s=0.8),
        )
        assert check_bench_floors.main(["--root", str(tmp_path), "--quiet"]) == 1

    def _parallel_document(self, **overrides):
        entries = {
            "warm_pool_dispatch_w2": {"speedup": 20.0, "min_speedup": 3.0},
            "shm_fanout_n100000": {"speedup": 100.0, "min_speedup": 10.0},
        }
        for key, value in overrides.items():
            entries[key].update(value)
        return {"kind": "repro-bench-parallel", "results": entries}

    def test_parallel_artifact_meets_both_floors(self, tmp_path):
        self._write(tmp_path, "BENCH_parallel.json", self._parallel_document())
        assert check_bench_floors.main(["--root", str(tmp_path), "--quiet"]) == 0

    def test_parallel_regressed_dispatch_fails(self, tmp_path):
        self._write(
            tmp_path,
            "BENCH_parallel.json",
            self._parallel_document(warm_pool_dispatch_w2={"speedup": 1.5}),
        )
        assert check_bench_floors.main(["--root", str(tmp_path), "--quiet"]) == 1

    def test_parallel_regressed_fanout_fails(self, tmp_path):
        self._write(
            tmp_path,
            "BENCH_parallel.json",
            self._parallel_document(shm_fanout_n100000={"speedup": 4.0}),
        )
        assert check_bench_floors.main(["--root", str(tmp_path), "--quiet"]) == 1


class TestScaleBenchSmokeMode:
    def test_smoke_sizes_stay_small(self, monkeypatch):
        """The CI smoke job must never launch a million-node probe."""
        import importlib

        monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmarks"))
        import bench_smoke

        module = importlib.import_module("test_bench_scale")
        assert max(module.SIZES_SMOKE) <= 10**3
        assert max(module.SIZES_FULL) == 10**6
        assert max(module.GENERAL_SIZES_SMOKE) <= 10**3
        assert max(module.GENERAL_SIZES_FULL) == 10**5
        # The module-level pick() is what selects them, so smoke mode can
        # never reach the full sizes.
        assert module.SIZES == (
            module.SIZES_SMOKE if bench_smoke.SMOKE else module.SIZES_FULL
        )


class TestBenchScratch:
    def test_artifacts_leave_no_scratch_directory_behind(self, tmp_path):
        """A process that imports a benchmark and writes an artifact cleans up."""
        script = (
            "import test_bench_scale as bench\n"
            "bench.ARTIFACT_PATH.write_text('{}')\n"
            "print(bench.ARTIFACT_PATH.parent)\n"
        )
        env = dict(os.environ, TMPDIR=str(tmp_path))
        env.pop("REPRO_BENCH_WRITE", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "benchmarks"), str(REPO_ROOT / "src")]
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        scratch = Path(completed.stdout.strip())
        assert scratch.parent == tmp_path
        assert not scratch.exists()
        assert list(tmp_path.iterdir()) == []
