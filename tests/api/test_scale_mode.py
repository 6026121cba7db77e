"""The ``scale`` query mode: validation, execution, results, CLI surface."""

import json

import pytest

from repro.api import MODES, Query, Result, Session
from repro.errors import ConfigurationError
from repro.kernel import run_scale_probe


class TestScaleQueryValidation:
    def test_scale_is_a_registered_mode(self):
        assert "scale" in MODES

    def test_builder_sets_the_mode(self):
        built = (
            Query.builder().scale().on("cycle").sizes(32).algorithms("largest-id").build()
        )
        assert built.mode == "scale"

    def test_non_streamed_topologies_are_rejected(self):
        with pytest.raises(ConfigurationError, match="does not stream"):
            Query(mode="scale", topologies="complete", sizes=16, algorithms="largest-id")

    def test_non_scale_algorithms_are_rejected(self):
        with pytest.raises(ConfigurationError, match="has no scale rule"):
            Query(mode="scale", topologies="cycle", sizes=16, algorithms="cole-vishkin")

    @pytest.mark.parametrize("knob", ["row_block", "center_chunk"])
    def test_removed_shard_knobs_are_unknown_fields(self, knob):
        document = dict(Query(mode="scale", sizes=16).to_dict(), **{knob: 4})
        with pytest.raises(ConfigurationError, match=knob):
            Query.from_dict(document)

    @pytest.mark.parametrize("knob", ["row_block", "center_chunk"])
    def test_removed_shard_knobs_fail_loudly_at_the_python_front_doors(self, knob):
        with pytest.raises(TypeError, match=knob):
            Session().scale(topologies="cycle", sizes=16, samples=1, **{knob: 4})
        with pytest.raises(TypeError, match=knob):
            run_scale_probe("cycle", 16, samples=1, **{knob: 4})

    def test_other_modes_ignore_the_stream_restriction(self):
        # grid does not stream, but simulate mode must keep accepting it.
        built = Query(mode="simulate", topologies="grid", sizes=9)
        assert built.topologies == ("grid",)


class TestSessionScale:
    @pytest.fixture(scope="class")
    def result(self):
        return Session().scale(
            topologies="cycle", sizes=64, algorithms="largest-id", samples=4, seed=7
        )

    def test_rows_carry_the_measure_estimates(self, result):
        (row,) = result.rows
        assert row["topology"] == "cycle"
        assert row["n"] == 64
        assert row["samples"] == 4
        assert row["max"]["mean"] == 32.0  # the cycle's eccentricity
        assert row["average"]["mean"] < 8.0  # O(log n) average measure
        assert row["exact"] is False
        assert row["nodes_per_s"] > 0
        # The cycle engages the vectorised ring sweep (the BFS rule's
        # bit-identical specialisation for the paper's own topology).
        assert row["kernel"]["rule"] == "ring-scan"

    def test_measures_headline_average_and_classic(self, result):
        assert result.measures["classic"] == 32.0
        assert result.measures["average"] == result.rows[0]["average"]["mean"]

    def test_table_has_the_scale_columns(self, result):
        table = result.table()
        assert "nodes_per_s" in table.columns
        assert "avg_mean" in table.columns

    def test_run_dispatches_scale(self):
        session = Session()
        built = Query(
            mode="scale", topologies="cycle", sizes=64, algorithms="largest-id",
            samples=4, seed=7,
        )
        assert session.run(built).rows[0]["max"]["mean"] == 32.0

    def test_json_round_trip(self, result):
        restored = Result.from_json(result.to_json())
        assert restored.mode == "scale"
        assert restored.rows[0]["average"] == result.rows[0]["average"]

    def test_worker_count_is_bit_invariant_through_the_api(self, result):
        shard = Session().scale(
            topologies="cycle", sizes=64, algorithms="largest-id", samples=4,
            seed=7, workers=2,
        )
        assert shard.rows[0]["average"] == result.rows[0]["average"]
        assert shard.rows[0]["max"] == result.rows[0]["max"]

    def test_multi_cell_grids_expand(self):
        result = Session().scale(
            topologies=("cycle", "random-tree"), sizes=(24, 32), samples=2, seed=3
        )
        assert len(result.rows) == 4
        assert {(row["topology"], row["n"]) for row in result.rows} == {
            ("cycle", 24),
            ("cycle", 32),
            ("random-tree", 24),
            ("random-tree", 32),
        }

    def test_csr_cache_is_reused_across_queries(self):
        session = Session()
        session.scale(topologies="cycle", sizes=48, samples=2)
        before = session.cache_info()
        session.scale(topologies="cycle", sizes=48, samples=2)
        after = session.cache_info()
        assert after["hits"] > before["hits"]

    @pytest.mark.parametrize("topology", ["cycle", "random-tree"])
    def test_serial_query_builds_its_csr_once(self, monkeypatch, topology):
        # The serial shards evaluate on the executor's own CSR and rule; the
        # per-process shard caches must not rebuild a second copy.
        import repro.api.session
        import repro.kernel.shard
        from repro.engine.pool import clear_worker_caches
        from repro.topology.stream import build_csr

        builds = []

        def counting_build_csr(*args, **kwargs):
            builds.append(args)
            return build_csr(*args, **kwargs)

        monkeypatch.setattr(repro.api.session, "build_csr", counting_build_csr)
        monkeypatch.setattr(repro.kernel.shard, "build_csr", counting_build_csr)
        monkeypatch.setattr(repro.kernel.shard, "ROW_BLOCK", 2)
        clear_worker_caches()
        Session().scale(topologies=topology, sizes=40, samples=6, seed=11, workers=1)
        assert len(builds) == 1


class TestScaleCLI:
    def test_scale_subcommand_prints_the_measures(self, capsys, tmp_path):
        from repro.cli import main

        output = tmp_path / "scale.json"
        assert (
            main(
                [
                    "scale",
                    "--topology",
                    "cycle",
                    "--n",
                    "64",
                    "--samples",
                    "3",
                    "--seed",
                    "5",
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "classic (max)    : 32.0" in printed
        assert "nodes/s" in printed
        document = json.loads(output.read_text())
        assert document["mode"] == "scale"

    @pytest.mark.parametrize("flag", ["--row-block", "--center-chunk"])
    def test_removed_shard_flags_are_rejected(self, capsys, flag):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["scale", "--topology", "cycle", "--n", "64", flag, "4"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
