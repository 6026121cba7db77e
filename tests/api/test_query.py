"""Tests for the declarative Query spec (validation, builder, JSON)."""

import json

import pytest

from repro.api.query import ANSWER_EPOCH, MODES, Query, QueryBuilder
from repro.errors import ConfigurationError


class TestConstruction:
    def test_scalars_are_promoted_to_tuples(self):
        query = Query(topologies="cycle", sizes=8, algorithms="largest-id")
        assert query.topologies == ("cycle",)
        assert query.sizes == (8,)
        assert query.algorithms == ("largest-id",)

    def test_sequences_are_frozen_to_tuples(self):
        query = Query(topologies=["cycle", "path"], sizes=[6, 8])
        assert query.topologies == ("cycle", "path")
        assert query.sizes == (6, 8)

    def test_defaults_are_valid_for_every_mode(self):
        for mode in MODES:
            assert Query(mode=mode).mode == mode

    def test_objective_resolves_the_measure(self):
        assert Query(measure="classic").objective == "max"
        assert Query(measure="average").objective == "average"
        assert Query(measure="max").objective == "max"

    def test_with_changes_revalidates(self):
        query = Query(sizes=8)
        assert query.with_changes(sizes=16).sizes == (16,)
        with pytest.raises(ConfigurationError):
            query.with_changes(topologies="hypercube")


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"mode": "oracle"}, "unknown mode"),
            ({"topologies": "hypercube"}, "unknown topology"),
            ({"algorithms": "quantum"}, "unknown algorithm"),
            ({"adversaries": "oracle"}, "unknown adversary"),
            ({"methods": "oracle"}, "unknown distribution method"),
            ({"ids": "oracle"}, "unknown identifier family"),
            ({"measure": "median"}, "unknown measure"),
            ({"sizes": 0}, "sizes must be positive"),
            ({"samples": 0}, "samples must be positive"),
            ({"workers": 0}, "workers must be"),
            ({"measure": "avg"}, "unknown measure"),
            ({"samples": -3}, "samples must be positive"),
        ],
    )
    def test_bad_fields_rejected_eagerly(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            Query(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("topologies", ["cycle", "path", "cycle"]),
            ("sizes", [16, 16]),
            ("algorithms", ["largest-id", "largest-id"]),
            ("adversaries", ["rotation", "rotation"]),
            ("methods", ["sample", "exact", "sample"]),
        ],
    )
    def test_an_axis_that_repeats_a_value_is_rejected(self, field, value):
        # A repeated value names one cell twice: two sampled rows would
        # fold into one shared estimator and report each other's draws.
        with pytest.raises(ConfigurationError, match=f"{field} repeats"):
            Query(mode="distribution", **{field: value})
        with pytest.raises(ConfigurationError, match=f"{field} repeats"):
            Query.from_dict(dict(Query().to_dict(), **{field: value}))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", "x"),
            ("seed", 1.5),
            ("seed", [1]),
            ("seed", True),
            ("seed", None),
            ("samples", True),
            ("samples", "5"),
            ("samples", 2.0),
            ("workers", "2"),
            ("restarts", -1),
            ("restarts", 0),
            ("swaps_per_step", 0),
            ("max_steps", "32"),
            ("exhaustive_max_nodes", 0),
            ("exact_max_nodes", 1.5),
            ("max_classes", "a"),
            ("sizes", "8"),
            ("sizes", (8, 2.5)),
        ],
    )
    def test_integer_fields_reject_non_ints_and_non_positive_budgets(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            Query(**{field: value})

    def test_integer_fields_through_the_json_document(self):
        document = dict(Query().to_dict(), samples="5")
        with pytest.raises(ConfigurationError, match="samples must be an int"):
            Query.from_dict(document)

    @pytest.mark.parametrize("seed", [0, -7, 2**70])
    def test_any_int_seed_is_valid(self, seed):
        assert Query(seed=seed).seed == seed

    def test_valid_queries_keep_their_canonical_hash(self):
        # Pinned at answer epoch 6: validation must not change the preimage
        # of any valid query, and only an epoch bump or a schema change may
        # re-key it.  Re-pinned in 9.0.0, when the ``row_block`` and
        # ``center_chunk`` fields left the document (no answer changed), in
        # 10.0.0 for epoch 4, when ``branch-and-bound`` became
        # ``pruned-exhaustive`` and ``local-search`` a hill-climb portfolio
        # (their witnesses and rows changed), and in 15.0.0 for epoch 5, when
        # the swap strategies stopped re-examining the swap they commit
        # (``evaluations`` of ``local-search`` and ``portfolio`` rows changed),
        # and in 17.0.0 for epoch 6, when sampled distribution cells began to
        # draw the scale mode's permutation rows (every sampled value changed).
        assert ANSWER_EPOCH == 6
        assert Query().canonical_hash() == (
            "58554d5762def00b6bbfb9b132c15e9fc7fd02429ef35c3f7be023929b4c8f37"
        )


class TestBuilder:
    def test_fluent_chain_builds_the_query(self):
        query = (
            Query.builder()
            .sweep()
            .on("cycle", "path")
            .sizes(6, 8)
            .algorithms("largest-id")
            .adversaries("rotation")
            .measure("sum")
            .identifiers("sorted")
            .budget(seed=3, samples=5, workers=2)
            .build()
        )
        assert query.mode == "sweep"
        assert query.topologies == ("cycle", "path")
        assert query.sizes == (6, 8)
        assert query.adversaries == ("rotation",)
        assert query.measure == "sum"
        assert query.ids == "sorted"
        assert (query.seed, query.samples, query.workers) == (3, 5, 2)

    def test_every_mode_selector(self):
        assert QueryBuilder().simulate().build().mode == "simulate"
        assert QueryBuilder().worst_case().build().mode == "worst-case"
        assert QueryBuilder().distribution().build().mode == "distribution"
        assert QueryBuilder().sweep().build().mode == "sweep"

    def test_builder_validates_on_build(self):
        with pytest.raises(ConfigurationError):
            Query.builder().on("hypercube").build()


class TestJson:
    def test_round_trip(self):
        query = Query(mode="distribution", topologies=("cycle", "path"), sizes=(5, 6), methods=("exact", "sample"), samples=32)
        assert Query.from_json(query.to_json()) == query

    def test_document_is_versioned(self):
        document = json.loads(Query().to_json())
        assert document["kind"] == "repro-query"
        assert document["version"] == 1

    def test_wrong_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="not a repro-query"):
            Query.from_dict({"kind": "repro-sweep", "version": 1})

    def test_wrong_version_rejected(self):
        with pytest.raises(ConfigurationError, match="version"):
            Query.from_dict({"kind": "repro-query", "version": 99})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown query field"):
            Query.from_dict({"kind": "repro-query", "version": 1, "topolgies": ["cycle"]})

    def test_load_reads_the_example_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(Query(mode="sweep", sizes=6).to_json(), encoding="utf-8")
        assert Query.load(str(path)).mode == "sweep"
