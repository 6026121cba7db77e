"""Tests for the versioned Result type (aggregation, tables, JSON, adoption)."""

import json

import pytest

from repro.api.query import Query
from repro.api.results import RESULT_KIND, RESULT_VERSION, Result
from repro.api.session import Session
from repro.errors import AnalysisError


@pytest.fixture(scope="module")
def sweep_result():
    return Session().sweep(
        Query(mode="sweep", topologies=("cycle", "path"), sizes=6, adversaries="rotation", seed=1)
    )


@pytest.fixture(scope="module")
def dist_result():
    return Session().distribution(
        Query(mode="distribution", topologies="cycle", sizes=5, methods=("exact", "sample"), samples=8)
    )


class TestAggregation:
    def test_sweep_measures_take_the_worst_cell(self, sweep_result):
        assert sweep_result.measures["average"] == max(
            row["value"] for row in sweep_result.rows
        )

    def test_cache_counters_are_summed(self, sweep_result):
        assert sweep_result.cache["hits"] == sum(
            row["cache"]["hits"] for row in sweep_result.rows
        )
        assert 0.0 <= sweep_result.cache["hit_rate"] <= 1.0

    def test_exact_requires_every_row(self, sweep_result):
        assert sweep_result.exact is False  # rotation is a heuristic

    def test_timing_sums_cell_wall_times(self, sweep_result):
        assert sweep_result.timing["wall_time_s"] == pytest.approx(
            sum(row["wall_time_s"] for row in sweep_result.rows)
        )


class TestTable:
    def test_sweep_table_has_the_cli_columns(self, sweep_result):
        rendered = str(sweep_result.table())
        for column in ("topology", "value", "evaluations", "cache_hit_rate"):
            assert column in rendered

    def test_distribution_table_flattens_marginals(self, dist_result):
        rendered = str(dist_result.table())
        assert "avg_mean" in rendered and "max_std" in rendered
        # Sampled rows expose a standard error, exact rows a dash.
        assert "-" in rendered

    def test_simulate_table(self):
        result = Session().simulate(topologies="cycle", sizes=6)
        rendered = str(result.table())
        assert "classic" in rendered and "average" in rendered


class TestJsonRoundTrip:
    def test_round_trip_is_lossless(self, sweep_result):
        reread = Result.from_json(sweep_result.to_json())
        assert reread.as_dict() == sweep_result.as_dict()

    def test_document_is_versioned(self, dist_result):
        document = json.loads(dist_result.to_json())
        assert document["kind"] == RESULT_KIND
        assert document["version"] == RESULT_VERSION

    def test_save_and_load(self, sweep_result, tmp_path):
        path = tmp_path / "result.json"
        sweep_result.save(str(path))
        assert Result.load(str(path)).as_dict() == sweep_result.as_dict()

    def test_wrong_kind_rejected(self):
        with pytest.raises(AnalysisError, match="not a result document"):
            Result.from_dict({"kind": "repro-query", "version": 1})

    def test_wrong_version_rejected(self):
        with pytest.raises(AnalysisError, match="version"):
            Result.from_dict({"kind": RESULT_KIND, "version": 99})


class TestPreApiKinds:
    @pytest.mark.parametrize("kind", ["repro-sweep", "repro-dist"])
    def test_pre_api_documents_are_rejected(self, sweep_result, kind):
        # Every --output writes repro-result; the pre-API kinds are retired.
        legacy = {"kind": kind, "version": 1, "rows": list(sweep_result.rows)}
        with pytest.raises(AnalysisError, match="not a result document"):
            Result.from_json(json.dumps(legacy))

