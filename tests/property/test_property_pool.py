"""The warm pool never changes an answer: parallel ≡ serial, everywhere.

The persistent worker runtime (:mod:`repro.engine.pool`) re-routes three
very different consumers — sampled/exact distribution grids, sharded scale
cells and the service's cold query batches — through warm processes,
shared-memory payloads and worker-side caches.  None of that machinery may
change a single bit of any row.  This wall pins each consumer against its
serial reference across worker counts {1, 2, 4}.
"""

import pytest

from repro.api import Query, Session
from repro.api.results import strip_volatile
from repro.service import QueryService

WORKERS = [1, 2, 4]

DIST = Query(
    mode="distribution",
    topologies=("cycle", "random-tree"),
    sizes=(6, 8),
    algorithms="largest-id",
    methods=("exact", "sample"),
    samples=12,
    seed=5,
)

SCALE = Query(
    mode="scale",
    topologies=("cycle", "random-tree"),
    sizes=48,
    algorithms="largest-id",
    samples=4,
    seed=7,
)

#: ``local-search`` is a hill-climb portfolio: its members fan out over the workers.
SEARCH = Query(
    mode="sweep",
    topologies=("cycle", "random-tree"),
    sizes=12,
    algorithms="largest-id",
    adversaries="local-search",
    restarts=3,
    swaps_per_step=6,
    max_steps=6,
    seed=9,
)

#: Cold documents the service wall fans out (distinct, all computable cold).
SERVICE_DOCUMENTS = [
    Query(mode="simulate", topologies="cycle", sizes=16).to_dict(),
    Query(mode="simulate", topologies="path", sizes=16).to_dict(),
    Query(
        mode="sweep",
        topologies="cycle",
        sizes=(6, 8),
        adversaries="branch-and-bound",
        measure="average",
    ).to_dict(),
    Query(mode="simulate", topologies="complete", sizes=9, seed=2).to_dict(),
]


def _scale_comparable(rows):
    """Scale rows minus the fields that legitimately vary with fan-out.

    ``kernel`` describes the executor (including its worker count) and
    ``nodes_per_s`` is a wall-clock rate; everything else must be frozen.
    """
    return [
        {
            key: value
            for key, value in row.items()
            if key not in ("kernel", "nodes_per_s")
        }
        for row in strip_volatile(rows)
    ]


@pytest.fixture(scope="module")
def dist_reference():
    return Session().distribution(DIST.with_changes(workers=1))


@pytest.fixture(scope="module")
def scale_reference():
    return Session().scale(SCALE.with_changes(workers=1))


class TestDistributionWall:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_sampled_and_exact_rows_are_worker_invariant(self, dist_reference, workers):
        result = Session().distribution(DIST.with_changes(workers=workers))
        assert strip_volatile(result.rows) == strip_volatile(dist_reference.rows)
        assert result.as_dict()["measures"] == dist_reference.as_dict()["measures"]


class TestScaleWall:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_sharded_scale_rows_are_worker_invariant(self, scale_reference, workers):
        result = Session().scale(SCALE.with_changes(workers=workers))
        assert _scale_comparable(result.rows) == _scale_comparable(scale_reference.rows)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_compose_with_odd_shard_shapes(
        self, monkeypatch, scale_reference, workers
    ):
        import repro.kernel.shard

        monkeypatch.setattr(repro.kernel.shard, "ROW_BLOCK", 1)
        result = Session().scale(SCALE.with_changes(workers=workers))
        assert _scale_comparable(result.rows) == _scale_comparable(scale_reference.rows)


class TestSearchWall:
    def test_local_search_rows_are_worker_invariant(self):
        reference = Session().sweep(SEARCH.with_changes(workers=1)).rows
        rows = Session().sweep(SEARCH.with_changes(workers=2)).rows
        assert len(rows) == 2
        assert strip_volatile(rows) == strip_volatile(reference)


class TestServiceWall:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_cold_batches_are_worker_invariant(self, tmp_path, workers):
        serial = QueryService(root=tmp_path / "serial")
        pooled = QueryService(root=tmp_path / f"pooled-{workers}", max_parallel=workers)
        reference = serial.execute_many(SERVICE_DOCUMENTS)
        outcomes = pooled.execute_many(SERVICE_DOCUMENTS)
        assert [o.tier for o in outcomes] == [o.tier for o in reference]
        for left, right in zip(outcomes, reference):
            assert left.digest == right.digest
            assert strip_volatile(left.document["rows"]) == strip_volatile(
                right.document["rows"]
            )
