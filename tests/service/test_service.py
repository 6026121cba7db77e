"""QueryService: cache tiers, resume semantics, crash recovery, dispatch."""

import importlib
import json

import pytest

from repro.api import Query, Session
from repro.api.results import strip_volatile
from repro.service import QueryService
from repro.service.workers import pending_jobs, write_job
from repro.utils.io import encode_json

EXACT = Query(
    mode="sweep",
    topologies="cycle",
    sizes=(6, 8),
    algorithms="largest-id",
    adversaries="branch-and-bound",
    measure="average",
)

SAMPLED = Query(
    mode="distribution",
    topologies="cycle",
    sizes=12,
    algorithms="greedy-mis",
    methods="sample",
    samples=16,
    seed=3,
)


def test_exact_query_miss_then_hit_bit_identical(service):
    first = service.execute(EXACT)
    second = service.execute(EXACT)
    assert first.tier == "miss" and first.cached == "miss"
    assert second.tier == "l1" and second.cached == "hit"
    # The stored document is returned verbatim: bit-identical.
    assert json.dumps(first.document, sort_keys=True) == json.dumps(
        second.document, sort_keys=True
    )
    assert first.document["kind"] == "repro-result"
    # One encoding: the miss and the hit carry the object file's bytes.
    stored = service.store.object_path(first.digest).read_bytes()
    assert first.body == second.body == stored
    assert json.loads(stored) == first.document


def test_store_survives_service_restart(service, store_root):
    first = service.execute(EXACT)
    fresh = QueryService(root=store_root)
    again = fresh.execute(EXACT)
    assert again.tier == "l2"
    assert again.document == first.document
    assert again.body == first.body


def test_semantically_equal_spellings_share_the_store_entry(service):
    scalar = Query(mode="sweep", topologies="cycle", sizes=6, adversaries="branch-and-bound")
    tupled = Query(mode="sweep", topologies=("cycle",), sizes=(6,), adversaries=("branch-and-bound",))
    assert service.execute(scalar).tier == "miss"
    assert service.execute(tupled).tier == "l1"


def test_sampling_resume_matches_fresh_combined_run(service, tmp_path):
    small = service.execute(SAMPLED)
    assert small.tier == "miss"
    larger = SAMPLED.with_changes(samples=48)
    resumed = service.execute(larger)
    assert resumed.tier == "resume"
    # Total draws are the combined budget...
    assert all(row["samples"] == 48 for row in resumed.document["rows"])
    # ... and the estimate is bit-for-bit the fresh single-run answer.
    fresh = QueryService(root=tmp_path / "fresh").execute(larger)
    assert strip_volatile(resumed.document["rows"]) == strip_volatile(
        fresh.document["rows"]
    )
    assert resumed.document["measures"] == fresh.document["measures"]


def test_resume_is_chainable(service, tmp_path):
    service.execute(SAMPLED)
    service.execute(SAMPLED.with_changes(samples=32))
    final = service.execute(SAMPLED.with_changes(samples=64))
    assert final.tier == "resume"
    fresh = QueryService(root=tmp_path / "fresh").execute(SAMPLED.with_changes(samples=64))
    assert strip_volatile(final.document["rows"]) == strip_volatile(fresh.document["rows"])


def test_smaller_budget_after_larger_computes_cold(service):
    service.execute(SAMPLED.with_changes(samples=48))
    smaller = service.execute(SAMPLED)  # 16 < 48: estimators cannot run backwards
    assert smaller.tier == "miss"


def test_worker_count_is_volatile_for_the_family_but_not_the_hash(service):
    service.execute(SAMPLED)
    other_workers = SAMPLED.with_changes(samples=48, workers=2)
    # Different canonical hash (workers differs) but the same family: resume.
    assert other_workers.canonical_hash() != SAMPLED.canonical_hash()
    assert other_workers.family_hash() == SAMPLED.family_hash()
    assert service.execute(other_workers).tier == "resume"


def test_max_parallel_fans_a_cold_sweep_over_the_pool(tmp_path):
    from repro.engine.pool import get_pool

    pool = get_pool(2)
    before = pool.stats["dispatches"]
    service = QueryService(root=tmp_path / "store", max_parallel=2)
    outcome = service.execute(EXACT.with_changes(seed=5))  # two cells
    assert outcome.tier == "miss"
    assert pool.stats["dispatches"] - before >= 1
    serial = QueryService(root=tmp_path / "serial").execute(EXACT.with_changes(seed=5))
    assert strip_volatile(outcome.document["rows"]) == strip_volatile(serial.document["rows"])


def test_a_scale_document_does_not_depend_on_max_parallel(tmp_path):
    """The stored document is a function of its query: no row records the fan-out."""
    query = Query(mode="scale", topologies="cycle", sizes=48, samples=4, seed=7)

    def comparable(outcome):
        rows = strip_volatile(outcome.document["rows"])
        return [{key: value for key, value in row.items() if key != "nodes_per_s"} for row in rows]

    serial = QueryService(root=tmp_path / "serial").execute(query)
    fanned = QueryService(root=tmp_path / "fanned", max_parallel=2).execute(query)
    assert fanned.digest == serial.digest
    assert comparable(fanned) == comparable(serial)
    assert "workers" not in fanned.document["rows"][0]["kernel"]
    assert fanned.document["query"]["workers"] == query.workers == 1


def test_recover_reruns_abandoned_jobs(service, store_root):
    # Simulate a crash: a job file exists, but no result reached the store.
    digest = EXACT.canonical_hash()
    write_job(service.config, digest, EXACT.to_dict())
    assert pending_jobs(service.config)
    recovered = QueryService(root=store_root)
    assert recovered.recover() == [digest]
    assert not pending_jobs(recovered.config)
    # The recovered result now serves as a store hit.
    assert recovered.execute(EXACT).tier in ("l1", "l2")


def test_recover_clears_a_job_this_version_rejects(service, store_root, capsys):
    # A job an earlier version accepted, with a size repeated: it no longer
    # validates, so recovery clears it instead of failing every start.
    document = dict(EXACT.to_dict(), sizes=[16, 16])
    digest = "ab" * 32
    write_job(service.config, digest, document)
    recovered = QueryService(root=store_root)
    assert recovered.recover() == []
    assert not pending_jobs(recovered.config)
    assert f"dropped job {digest}" in capsys.readouterr().err


def test_jobs_clear_after_successful_compute(service):
    service.execute(EXACT)
    assert pending_jobs(service.config) == []


def test_streaming_progress_tightens_and_final_matches(service, tmp_path):
    query = SAMPLED.with_changes(samples=64)
    events = list(service.execute_stream(query))
    progress = events[:-1]
    assert [event["type"] for event in progress] == ["progress"] * len(progress)
    assert len(progress) >= 2
    draws = [event["draws"] for event in progress]
    assert draws == sorted(draws) and draws[-1] == 64
    errors = [event["cells"][0]["std_error"] for event in progress]
    assert errors[-1] < errors[0]  # the CI tightens as draws accumulate
    for event in progress:
        cell = event["cells"][0]
        low, high = cell["ci95"]
        assert low <= cell["mean"] <= high
    final = json.loads(events[-1].line)
    assert final["type"] == "result" and final["cache"] == "miss"
    fresh = QueryService(root=tmp_path / "fresh").execute(query)
    assert strip_volatile(final["document"]["rows"]) == strip_volatile(
        fresh.document["rows"]
    )


def test_streaming_persists_the_result_and_the_state(service):
    query = SAMPLED.with_changes(samples=64)
    list(service.execute_stream(query))
    assert service.execute(query).tier == "l1"
    # The streamed run's estimator state resumes a later, larger budget.
    assert service.execute(query.with_changes(samples=96)).tier == "resume"


def test_streaming_a_store_hit_emits_only_the_result(service):
    service.execute(EXACT)
    events = list(service.execute_stream(EXACT))
    assert [json.loads(event.line)["type"] for event in events] == ["result"]
    assert events[0].cached == "hit"


def test_the_streamed_result_line_is_spliced_from_the_stored_body(service):
    # A miss and then a hit of the same query: each final line is the
    # event's compact encoding, built around the stored bytes.
    for tier in ("miss", "hit"):
        outcome = list(service.execute_stream(SAMPLED))[-1]
        assert outcome.cached == tier
        event = {
            "type": "result",
            "hash": outcome.digest,
            "cache": outcome.cached,
            "document": outcome.document,
        }
        assert outcome.line == encode_json(event)
        assert outcome.body == encode_json(outcome.document)


def test_shared_session_is_used(store_root):
    service = QueryService(root=store_root, max_parallel=2)
    assert service.session.workers == 2
    service.execute(EXACT)
    list(service.execute_stream(SAMPLED))
    assert service.session.queries >= 2


def test_store_bounds_run_gc_after_writes(store_root):
    service = QueryService(root=store_root, store_max_objects=2)
    queries = [
        Query(mode="simulate", topologies="cycle", sizes=16, seed=seed)
        for seed in range(4)
    ]
    for query in queries:
        service.execute(query)
    assert len(service.store) <= 2
    # The newest answers survived and still serve as hits.
    assert service.execute(queries[-1]).tier in ("l1", "l2")


def test_store_bounds_run_gc_at_startup(store_root):
    unbounded = QueryService(root=store_root)
    for seed in range(4):
        unbounded.execute(Query(mode="simulate", topologies="cycle", sizes=16, seed=seed))
    assert len(unbounded.store) == 4
    bounded = QueryService(root=store_root, store_max_objects=1)
    assert len(bounded.store) == 1


def test_gc_drops_evicted_familys_estimator_state(store_root):
    service = QueryService(root=store_root, store_max_objects=1)
    service.execute(SAMPLED)
    family_state = service.store.get_state(SAMPLED.family_hash())
    assert family_state is not None
    # An unrelated query evicts the sampled result: its state goes too.
    service.execute(Query(mode="simulate", topologies="cycle", sizes=16))
    assert service.store.get_state(SAMPLED.family_hash()) is None
    # ... so the sampled query now recomputes cold rather than resuming.
    assert service.execute(SAMPLED.with_changes(samples=32)).tier == "miss"


PARITY = Query(
    mode="distribution",
    topologies=("cycle", "random-tree"),
    sizes=(6, 7),
    algorithms=("largest-id", "greedy-mis"),
    methods=("exact", "sample"),
    samples=24,
    seed=11,
)


def test_service_paths_give_the_session_rows(tmp_path):
    """Miss, resume and stream all answer with ``Session().run``'s rows."""
    expected = Session().run(PARITY)
    miss = QueryService(root=tmp_path / "miss").execute(PARITY)
    resumer = QueryService(root=tmp_path / "resume")
    resumer.execute(PARITY.with_changes(samples=10))
    resumed = resumer.execute(PARITY)
    streamed = json.loads(
        list(QueryService(root=tmp_path / "stream").execute_stream(PARITY))[-1].line
    )
    assert (miss.tier, resumed.tier, streamed["cache"]) == ("miss", "resume", "miss")
    for document in (miss.document, resumed.document, streamed["document"]):
        assert strip_volatile(document["rows"]) == strip_volatile(expected.rows)
        assert document["measures"] == expected.as_dict()["measures"]


def test_streamed_resume_continues_the_stored_state(tmp_path):
    service = QueryService(root=tmp_path / "store")
    service.execute(PARITY.with_changes(samples=10))
    events = list(service.execute_stream(PARITY))
    progress = events[:-1]
    assert progress[0]["draws"] > 10 and progress[-1]["draws"] == 24
    assert events[-1].cached == "resume"
    assert strip_volatile(events[-1].document["rows"]) == strip_volatile(
        Session().run(PARITY).rows
    )


@pytest.mark.parametrize("query", [EXACT, PARITY], ids=["sweep", "sampled"])
def test_a_client_workers_field_never_sets_the_process_count(service, monkeypatch, query):
    """A ``workers=64`` query on a ``max_parallel=1`` service runs in-process."""
    import repro.engine.batch

    requested = []

    def spy(workers):
        requested.append(workers)
        raise AssertionError(f"the service asked for a pool of {workers} workers")

    monkeypatch.setattr(repro.engine.batch, "get_pool", spy)
    greedy = query.with_changes(workers=64)
    assert service.execute(greedy).tier == "miss"
    events = list(service.execute_stream(greedy.with_changes(samples=query.samples + 8)))
    assert json.loads(events[-1].line)["type"] == "result"
    assert requested == []


TREE = Query(
    mode="distribution",
    topologies="random-tree",
    sizes=9,
    algorithms="largest-id",
    methods="sample",
    samples=16,
    seed=5,
)


def test_an_answer_epoch_bump_makes_old_results_and_states_misses(store_root, tmp_path, monkeypatch):
    """Results and estimator states stored under an older epoch are never served."""
    query_module = importlib.import_module("repro.api.query")
    monkeypatch.setattr(query_module, "ANSWER_EPOCH", query_module.ANSWER_EPOCH - 1)
    primer = QueryService(root=store_root)
    assert primer.execute(TREE).tier == "miss"
    assert primer.execute(TREE.with_changes(samples=32)).tier == "resume"
    monkeypatch.undo()

    service = QueryService(root=store_root)
    larger = TREE.with_changes(samples=48)
    # The old family state (32 draws) must not be continued...
    resumed = service.execute(larger)
    assert resumed.tier == "miss"
    # ... and the old stored result must not be served.
    recomputed = service.execute(TREE)
    assert recomputed.tier == "miss"
    fresh = QueryService(root=tmp_path / "fresh")
    for outcome, query in ((resumed, larger), (recomputed, TREE)):
        assert strip_volatile(outcome.document["rows"]) == strip_volatile(
            fresh.execute(query).document["rows"]
        )
    assert service.execute(TREE).tier == "l1"
