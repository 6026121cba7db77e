"""The content-addressed result store: tiers, sharding, atomicity, states."""

import json

import pytest

from repro.api import Query
from repro.errors import ConfigurationError
from repro.service import ResultStore

DOC = {"kind": "repro-result", "version": 1, "mode": "sweep", "rows": []}
DOC_BYTES = b'{"kind":"repro-result","mode":"sweep","rows":[],"version":1}\n'


def _digest(**fields) -> str:
    return Query(**fields).canonical_hash()


def test_miss_then_put_then_tiered_hits(store_root):
    store = ResultStore(store_root)
    digest = _digest(mode="sweep")
    assert store.get(digest) == (None, "miss")
    written = store.put(digest, DOC, meta={"mode": "sweep"})
    assert json.loads(written) == DOC
    assert store.get(digest) == (written, "l1")
    # A fresh instance over the same root has a cold L1: the disk answers.
    fresh = ResultStore(store_root)
    assert fresh.get(digest) == (written, "l2")
    # ... and the L2 hit promoted the document into L1.
    assert fresh.get(digest)[1] == "l1"


def test_objects_are_sharded_by_hash_prefix(store_root):
    store = ResultStore(store_root)
    digest = _digest(mode="sweep")
    body = store.put(digest, DOC)
    path = store.object_path(digest)
    assert path.parent.name == digest[:2]
    assert path.name == f"{digest}.json"
    # The object file is the compact, key-sorted, one-line encoding.
    assert path.read_bytes() == body == DOC_BYTES


def test_an_object_that_is_not_json_is_never_served(store_root):
    digest = _digest(mode="sweep")
    ResultStore(store_root).put(digest, DOC)
    fresh = ResultStore(store_root)
    fresh.object_path(digest).write_bytes(b'{"kind": "repro-res')
    with pytest.raises(ValueError):
        fresh.get(digest)


def test_manifest_records_entries(store_root):
    store = ResultStore(store_root)
    first, second = _digest(mode="sweep"), _digest(mode="simulate")
    store.put(first, DOC, meta={"mode": "sweep"})
    store.put(second, dict(DOC, mode="simulate"), meta={"mode": "simulate"})
    manifest = json.loads((store_root / "manifest.json").read_text())
    assert manifest["kind"] == "repro-store-manifest"
    assert set(manifest["entries"]) == {first, second}
    assert manifest["entries"][first]["mode"] == "sweep"
    assert len(ResultStore(store_root)) == 2


@pytest.mark.parametrize(
    "bad",
    ["", "abc", "../../etc/passwd", "Z" * 64, "0" * 63, "0" * 65, None, 7],
)
def test_digest_validation_rejects_non_hashes(store_root, bad):
    store = ResultStore(store_root)
    with pytest.raises(ConfigurationError):
        store.get(bad)


def test_l1_is_bounded(store_root):
    store = ResultStore(store_root, l1_limit=2)
    digests = [_digest(mode="simulate", seed=seed) for seed in range(3)]
    for digest in digests:
        store.put(digest, DOC)
    assert store._l1.evictions == 1
    # The evicted entry still answers from disk.
    assert store.get(digests[0])[1] == "l2"


def test_state_round_trip_and_monotonicity(store_root):
    store = ResultStore(store_root)
    family = Query(mode="distribution", methods="sample").family_hash()
    assert store.get_state(family) is None
    assert store.put_state(family, 32, {"cycle|8|largest-id": {"draws": 32}}) is not None
    stored = store.get_state(family)
    assert stored["samples"] == 32
    assert stored["states"]["cycle|8|largest-id"]["draws"] == 32
    # A smaller budget never overwrites a larger one.
    assert store.put_state(family, 16, {"cycle|8|largest-id": {"draws": 16}}) is None
    assert store.get_state(family)["samples"] == 32
    # A larger one does.
    assert store.put_state(family, 64, {"cycle|8|largest-id": {"draws": 64}}) is not None
    assert store.get_state(family)["samples"] == 64


def test_contains_and_stats(store_root):
    store = ResultStore(store_root)
    digest = _digest(mode="sweep")
    assert digest not in store
    store.put(digest, DOC)
    assert digest in store
    stats = store.stats()
    assert stats["objects"] == 1
    assert stats["bytes"] > 0
    assert stats["l1"]["entries"] == 1


class TestGc:
    def _fill(self, store, count):
        digests = [_digest(mode="simulate", seed=seed) for seed in range(count)]
        for digest in digests:
            store.put(digest, DOC)
        return digests

    def test_unbounded_gc_is_a_no_op(self, store_root):
        store = ResultStore(store_root)
        digests = self._fill(store, 3)
        summary = store.gc()
        assert summary == {"evicted": 0, "objects": 3, "bytes": store.total_bytes()}
        assert all(digest in store for digest in digests)

    def test_max_objects_evicts_least_recently_used_first(self, store_root):
        store = ResultStore(store_root)
        digests = self._fill(store, 4)
        summary = store.gc(max_objects=2)
        assert summary["evicted"] == 2 and summary["objects"] == 2
        # The two oldest writes went; the two newest survive.
        assert store.get(digests[0]) == (None, "miss")
        assert store.get(digests[1]) == (None, "miss")
        assert store.get(digests[2])[0] == DOC_BYTES
        assert store.get(digests[3])[0] == DOC_BYTES
        # Their object files are really gone and the manifest agrees.
        assert not store.object_path(digests[0]).exists()
        manifest = json.loads((store_root / "manifest.json").read_text())
        assert set(manifest["entries"]) == {digests[2], digests[3]}

    def test_l2_read_refreshes_recency(self, store_root):
        store = ResultStore(store_root)
        digests = self._fill(store, 3)
        # Re-read the oldest entry through a cold L1 (an L2 hit).
        fresh = ResultStore(store_root)
        assert fresh.get(digests[0])[1] == "l2"
        fresh.gc(max_objects=2)
        # The touched oldest entry survived; the untouched next-oldest went.
        assert fresh.get(digests[0])[0] == DOC_BYTES
        assert fresh.get(digests[1]) == (None, "miss")

    def test_max_bytes_bound(self, store_root):
        store = ResultStore(store_root)
        digests = self._fill(store, 4)
        per_object = store.total_bytes() // 4
        summary = store.gc(max_bytes=2 * per_object)
        assert summary["bytes"] <= 2 * per_object
        assert digests[3] in store

    def test_eviction_drops_the_l1_copy(self, store_root):
        store = ResultStore(store_root, l1_limit=8)
        digests = self._fill(store, 2)
        store.gc(max_objects=1)
        # A pure-L1 answer for the evicted digest would be a stale hit.
        assert store.get(digests[0]) == (None, "miss")

    def test_orphaned_family_state_is_removed(self, store_root):
        store = ResultStore(store_root)
        keep = Query(mode="distribution", methods="sample", seed=1)
        drop = Query(mode="distribution", methods="sample", seed=2)
        store.put(drop.canonical_hash(), DOC, meta={"family": drop.family_hash()})
        store.put_state(drop.family_hash(), 16, {"cycle|8|largest-id": {"draws": 16}})
        store.put(keep.canonical_hash(), DOC, meta={"family": keep.family_hash()})
        store.put_state(keep.family_hash(), 16, {"cycle|8|largest-id": {"draws": 16}})
        store.gc(max_objects=1)
        # The evicted result's family lost its estimator state; the
        # surviving result's family kept it.
        assert store.get_state(drop.family_hash()) is None
        assert store.get_state(keep.family_hash()) is not None

    def test_pre_gc_manifest_entries_are_sized_lazily(self, store_root):
        store = ResultStore(store_root)
        digest = _digest(mode="sweep")
        store.put(digest, DOC)
        # Strip the new bookkeeping fields, as a manifest from an older
        # version would have them.
        manifest = store.manifest()
        manifest["entries"][digest].pop("bytes")
        manifest["entries"][digest].pop("stamp")
        manifest.pop("clock")
        assert store.total_bytes() == store.object_path(digest).stat().st_size
        assert store.gc(max_objects=1)["evicted"] == 0
