"""Tests for the command-line interface."""

import pytest

from repro.cli import ID_FAMILIES, TOPOLOGIES, build_parser, main
from repro.errors import ConfigurationError


class TestParser:
    def test_no_arguments_prints_the_summary_and_exits_zero(self, capsys):
        assert main([]) == 0
        output = capsys.readouterr().out
        assert "usage: repro" in output
        for subcommand in ("simulate", "search", "sweep", "dist", "query"):
            assert subcommand in output

    def test_version_flag_prints_the_library_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.algorithm == "largest-id"
        assert args.n == 64
        assert args.topology == "cycle"
        assert args.ids == "random"

    def test_unknown_topology_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--topology", "hypercube"])


class TestListCommands:
    def test_list_algorithms_prints_registered_names(self, capsys):
        assert main(["list-algorithms"]) == 0
        output = capsys.readouterr().out
        assert "largest-id" in output
        assert "cole-vishkin" in output

    def test_list_experiments_prints_the_index(self, capsys):
        assert main(["list-experiments"]) == 0
        output = capsys.readouterr().out
        assert "E1:" in output and "E12:" in output and "E13:" in output


class TestSimulate:
    def test_simulate_largest_id_on_a_cycle(self, capsys):
        assert main(["simulate", "--algorithm", "largest-id", "--n", "32", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "classic measure  : 16" in output
        assert "output certified : yes" in output

    def test_simulate_round_algorithm(self, capsys):
        assert main(["simulate", "--algorithm", "cole-vishkin", "--n", "16"]) == 0
        output = capsys.readouterr().out
        assert "average measure" in output

    def test_simulate_on_other_topologies(self, capsys):
        assert main(["simulate", "--topology", "random-tree", "--n", "20"]) == 0
        assert "classic measure" in capsys.readouterr().out

    def test_simulate_with_worst_case_ids(self, capsys):
        assert main(["simulate", "--ids", "worst-largest-id", "--n", "32"]) == 0
        output = capsys.readouterr().out
        assert "classic measure  : 16" in output

    def test_every_registered_id_family_builds_valid_assignments(self):
        for family, builder in ID_FAMILIES.items():
            ids = builder(12, 1)
            assert len(set(ids.identifiers())) == 12, family

    def test_every_registered_topology_builds_connected_graphs(self):
        for name, builder in TOPOLOGIES.items():
            graph = builder(12, 1)
            assert graph.is_connected(), name


class TestRunExperiment:
    def test_runs_a_small_experiment_and_prints_its_table(self, capsys):
        assert main(["run-experiment", "E2", "--small"]) == 0
        output = capsys.readouterr().out
        assert "E2" in output and "A000788" in output

    def test_experiment_id_is_case_insensitive(self, capsys):
        assert main(["run-experiment", "e2", "--small"]) == 0
        assert "A000788" in capsys.readouterr().out

    def test_plot_option_adds_an_ascii_plot(self, capsys):
        assert main(["run-experiment", "E2", "--small", "--plot", "p", "a(p)"]) == 0
        output = capsys.readouterr().out
        assert "a(p)" in output
        assert "+---" in output  # the plot's x-axis

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            main(["run-experiment", "E99"])


class TestSearch:
    def test_search_defaults(self):
        args = build_parser().parse_args(["search"])
        assert args.adversary == "branch-and-bound"
        assert args.objective == "average"
        assert args.n == 8

    def test_exact_search_prints_a_certificate(self, capsys):
        assert main(["search", "--topology", "cycle", "--n", "7"]) == 0
        output = capsys.readouterr().out
        assert "exact            : True" in output
        assert "'group_order': 14" in output
        assert "witness ids" in output

    def test_portfolio_search_reports_strategies(self, capsys):
        assert (
            main(["search", "--n", "10", "--adversary", "portfolio", "--seed", "2"])
            == 0
        )
        output = capsys.readouterr().out
        assert "exact            : False" in output
        assert "hill-climb" in output

    def test_legacy_adversaries_remain_available(self, capsys):
        assert main(["search", "--n", "6", "--adversary", "exhaustive"]) == 0
        assert "exact            : True" in capsys.readouterr().out

    def test_unknown_adversary_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--adversary", "oracle"])


class TestGap:
    def test_prints_the_headline_numbers(self, capsys):
        assert main(["gap", "--n", "128"]) == 0
        output = capsys.readouterr().out
        assert "classic measure 64" in output
        assert "gap" in output


class TestDist:
    def test_dist_defaults(self):
        args = build_parser().parse_args(["dist"])
        assert args.topologies == "cycle"
        assert args.methods == "exact"
        assert args.samples == 256

    def test_exact_dist_covers_n_factorial(self, capsys):
        assert main(["dist", "--topologies", "cycle", "--sizes", "6"]) == 0
        output = capsys.readouterr().out
        assert "720" in output  # total weight 6!
        assert "avg_mean" in output

    def test_exact_and_sampled_methods_share_the_table(self, capsys):
        assert (
            main(
                [
                    "dist",
                    "--topologies", "cycle",
                    "--sizes", "6",
                    "--methods", "exact,sample",
                    "--samples", "16",
                    "--seed", "2",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "exact" in output and "sample" in output

    def test_plot_prints_a_pmf(self, capsys):
        assert main(["dist", "--sizes", "5", "--plot"]) == 0
        output = capsys.readouterr().out
        assert "pmf of the average measure" in output
        assert "#" in output

    def test_dist_writes_a_json_document(self, capsys, tmp_path):
        out = tmp_path / "dist.json"
        assert (
            main(["dist", "--sizes", "6", "--output", str(out)])
            == 0
        )
        import json

        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["kind"] == "repro-result"
        assert document["version"] == 1
        assert document["mode"] == "distribution"
        assert document["rows"][0]["total_weight"] == 720

    def test_dist_output_loads_as_a_result(self, capsys, tmp_path):
        out = tmp_path / "dist.json"
        assert main(["dist", "--sizes", "5", "--output", str(out)]) == 0
        from repro.api.results import Result

        result = Result.load(str(out))
        assert result.mode == "distribution"
        assert result.query["sizes"] == [5]
        assert result.rows[0]["total_weight"] == 120

    def test_dist_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError, match="--sizes"):
            main(["dist", "--sizes", "six"])

    def test_dist_rejects_unknown_method(self):
        with pytest.raises(ConfigurationError, match="unknown distribution method"):
            main(["dist", "--methods", "oracle"])


class TestSweep:
    def test_sweep_prints_rows_for_the_full_grid(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--topologies", "cycle,path",
                    "--sizes", "6,8",
                    "--algorithms", "largest-id",
                    "--adversaries", "random-search",
                    "--samples", "3",
                    "--seed", "1",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "cache_hit_rate" in output
        assert output.count("largest-id") == 4

    def test_sweep_writes_json_rows(self, capsys, tmp_path):
        out = tmp_path / "rows.json"
        assert (
            main(
                [
                    "sweep",
                    "--topologies", "cycle",
                    "--sizes", "6",
                    "--adversaries", "rotation",
                    "--output", str(out),
                ]
            )
            == 0
        )
        from repro.api.results import Result

        rows = Result.load(str(out)).rows
        assert len(rows) == 1
        assert rows[0]["adversary"] == "rotation"

    def test_sweep_output_loads_as_a_result(self, capsys, tmp_path):
        out = tmp_path / "rows.json"
        assert (
            main(["sweep", "--sizes", "6", "--adversaries", "rotation", "--output", str(out)])
            == 0
        )
        import json

        from repro.api.results import Result

        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["kind"] == "repro-result"
        assert document["version"] == 1
        result = Result.load(str(out))
        assert result.mode == "sweep"
        assert list(result.rows) == document["rows"]

    def test_sweep_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError, match="--sizes"):
            main(["sweep", "--sizes", "six"])

    def test_sweep_rejects_unknown_topology(self):
        with pytest.raises(ConfigurationError, match="unknown topology"):
            main(["sweep", "--topologies", "hypercube"])


class TestQueryCommand:
    def test_runs_the_example_spec_end_to_end(self, capsys, tmp_path):
        from pathlib import Path

        spec = Path(__file__).resolve().parent.parent / "examples" / "spec.json"
        out = tmp_path / "out.json"
        assert main(["query", "--spec", str(spec), "--output", str(out)]) == 0
        output = capsys.readouterr().out
        assert "mode     : sweep" in output
        assert "exact    : True" in output
        import json

        from repro.api.results import Result

        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["kind"] == "repro-result"
        assert document["version"] == 1
        result = Result.load(str(out))
        assert result.mode == "sweep"
        assert result.exact is True
        assert len(result.rows) == 4
        assert result.query["kind"] == "repro-query"

    def test_simulate_spec_from_disk(self, capsys, tmp_path):
        from repro.api.query import Query

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            Query(mode="simulate", topologies="cycle", sizes=6).to_json(),
            encoding="utf-8",
        )
        assert main(["query", "--spec", str(spec_path)]) == 0
        output = capsys.readouterr().out
        assert "mode     : simulate" in output
        assert "classic" in output

    def test_rejects_a_non_query_document(self, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text('{"kind": "something-else"}', encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not a repro-query"):
            main(["query", "--spec", str(spec_path)])


class TestQueryProfiling:
    @pytest.fixture(autouse=True)
    def _obs_isolation(self):
        from repro.obs import metrics, spans

        state = spans._state
        yield
        spans._state = state
        spans.reset_spans()
        metrics.reset_metrics()

    def test_profile_and_trace_end_to_end(self, capsys, tmp_path):
        import json
        from pathlib import Path

        spec = Path(__file__).resolve().parent.parent / "examples" / "spec.json"
        trace_path = tmp_path / "trace.json"
        assert (
            main(
                [
                    "query",
                    "--spec",
                    str(spec),
                    "--profile",
                    "--trace",
                    str(trace_path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "per-query span profile" in output
        assert "api.query" in output
        assert "search.branch_bound" in output
        assert f"trace events to {trace_path}" in output
        document = json.loads(trace_path.read_text(encoding="utf-8"))
        events = document["traceEvents"]
        assert events, "trace must carry events"
        names = {event["name"] for event in events}
        assert "api.query" in names
        assert "engine.search_cell" in names
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0.0

    def test_profile_wall_time_coheres_with_span_tree(self, capsys, tmp_path):
        # Acceptance check: the span-tree total accounts for the summed
        # wall time within 10% — the root span encloses every cell, so it
        # can only exceed the per-row sum (by scheduling noise), never
        # undershoot it by more than the tolerance.
        import json
        from pathlib import Path

        from repro.api.results import Result

        spec = Path(__file__).resolve().parent.parent / "examples" / "spec.json"
        out = tmp_path / "result.json"
        assert (
            main(["query", "--spec", str(spec), "--profile", "--output", str(out)])
            == 0
        )
        capsys.readouterr()
        result = Result.load(str(out))
        assert result.profile is not None
        wall = result.timing["wall_time_s"]
        total = result.profile["total_s"]
        assert wall <= total * 1.10 + 1e-6
        tree_total = sum(node["total_s"] for node in result.profile["spans"])
        assert tree_total == pytest.approx(total, rel=1e-9)
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["profile"]["spans"][0]["name"] == "api.query"

    def test_plain_query_prints_timing_without_spans(self, capsys, tmp_path):
        from repro.api.query import Query
        from repro.obs import spans

        spans.disable()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            Query(mode="simulate", topologies="cycle", sizes=6).to_json(),
            encoding="utf-8",
        )
        assert main(["query", "--spec", str(spec_path)]) == 0
        output = capsys.readouterr().out
        assert "wall time:" in output
        assert "per-query span profile" not in output


class TestWorkerResolution:
    def test_explicit_flag_beats_the_environment(self, monkeypatch):
        from repro.cli import _resolve_workers_flag

        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert _resolve_workers_flag(3) == 3

    def test_environment_beats_the_default(self, monkeypatch):
        from repro.cli import _resolve_workers_flag

        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert _resolve_workers_flag(None) == 2
        monkeypatch.delenv("REPRO_WORKERS")
        assert _resolve_workers_flag(None) == 1

    def test_invalid_environment_value_is_rejected(self, monkeypatch):
        from repro.cli import _resolve_workers_flag

        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ConfigurationError):
            _resolve_workers_flag(None)

    def test_workers_flags_default_to_unset(self):
        parser = build_parser()
        assert parser.parse_args(["dist"]).workers is None
        assert parser.parse_args(["sweep"]).workers is None
        assert parser.parse_args(["serve"]).max_parallel is None
        assert parser.parse_args(["serve"]).store_max_objects is None
        assert parser.parse_args(["serve"]).store_max_bytes is None

    def test_dist_honours_repro_workers_end_to_end(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert (
            main(
                [
                    "dist",
                    "--topologies",
                    "cycle",
                    "--sizes",
                    "10,12",
                    "--methods",
                    "sample",
                    "--samples",
                    "8",
                    "--seed",
                    "1",
                ]
            )
            == 0
        )
        assert "cycle" in capsys.readouterr().out
