"""Canonical query hashing: the store's content addresses are semantic.

The service keys persisted results by ``Query.canonical_hash()``, so the
hash must identify the *meaning* of a query, not its spelling: scalar vs
tuple promotion, JSON key order and defaulted-vs-explicit fields must all
collapse to one address, distinct specs must not collide, and the address
must be identical in every process (no ``PYTHONHASHSEED`` dependence).
"""

import itertools
import json
import os
import subprocess
import sys

from repro.api import Query
from repro.api.query import FAMILY_EXCLUDED_FIELDS


def test_scalar_and_tuple_spellings_hash_identically():
    assert (
        Query(mode="sweep", topologies="cycle", sizes=8).canonical_hash()
        == Query(mode="sweep", topologies=("cycle",), sizes=(8,)).canonical_hash()
    )


def test_defaulted_and_explicit_fields_hash_identically():
    defaulted = Query(mode="simulate", topologies="cycle")
    explicit = Query(
        mode="simulate",
        topologies="cycle",
        sizes=(8,),
        algorithms=("largest-id",),
        measure="average",
        ids="random",
        seed=0,
        samples=64,
        workers=1,
    )
    assert defaulted.canonical_hash() == explicit.canonical_hash()


def test_document_key_order_does_not_matter():
    document = Query(mode="sweep", topologies=("cycle", "path"), sizes=(6, 8)).to_dict()
    shuffled = dict(reversed(list(document.items())))
    assert json.dumps(document) != json.dumps(shuffled)  # orders really differ
    assert (
        Query.from_dict(document).canonical_hash()
        == Query.from_dict(shuffled).canonical_hash()
    )


def test_preimage_is_canonical_json_with_kind_and_version():
    query = Query(mode="sweep", topologies="cycle")
    preimage = json.loads(query.canonical_preimage())
    assert preimage["kind"] == "repro-query"
    assert preimage["version"] == 1
    compact = json.dumps(preimage, sort_keys=True, separators=(",", ":"))
    assert query.canonical_preimage() == compact


def test_distinct_specs_do_not_collide_across_a_grid():
    seen = {}
    grid = itertools.product(
        ("simulate", "sweep", "distribution"),
        ("cycle", "path"),
        ((6,), (8,), (6, 8)),
        (0, 1),
        (16, 64),
    )
    for mode, topology, sizes, seed, samples in grid:
        query = Query(mode=mode, topologies=topology, sizes=sizes, seed=seed, samples=samples)
        digest = query.canonical_hash()
        assert digest not in seen, f"collision: {query} vs {seen[digest]}"
        seen[digest] = query
    assert len(seen) == 3 * 2 * 3 * 2 * 2


def test_every_field_change_changes_the_hash():
    base = Query(mode="distribution", methods=("exact", "sample"))
    for changes in (
        {"mode": "sweep"},
        {"topologies": ("path",)},
        {"sizes": (9,)},
        {"algorithms": ("greedy-mis",)},
        {"measure": "sum"},
        {"seed": 17},
        {"samples": 128},
        {"workers": 4},
        {"methods": ("sample",)},
        {"max_classes": 99},
    ):
        assert base.with_changes(**changes).canonical_hash() != base.canonical_hash(), changes


def test_hash_is_stable_across_processes_regardless_of_pythonhashseed():
    query = Query(mode="sweep", topologies=("cycle", "path"), sizes=(6, 8), seed=7)
    script = (
        "import sys\n"
        "from repro.api import Query\n"
        "query = Query(mode='sweep', topologies=('cycle', 'path'), sizes=(6, 8), seed=7)\n"
        "print(query.canonical_hash())\n"
        "print(query.family_hash())\n"
    )
    digests = set()
    families = set()
    for hash_seed in ("0", "1", "42"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        digest, family = completed.stdout.split()
        digests.add(digest)
        families.add(family)
    assert digests == {query.canonical_hash()}
    assert families == {query.family_hash()}


def test_family_hash_ignores_exactly_the_resumable_budgets():
    base = Query(mode="distribution", methods="sample", samples=16)
    assert FAMILY_EXCLUDED_FIELDS == ("samples", "workers")
    assert base.with_changes(samples=64).family_hash() == base.family_hash()
    assert base.with_changes(workers=3).family_hash() == base.family_hash()
    assert base.with_changes(seed=1).family_hash() != base.family_hash()
    assert base.with_changes(sizes=(9,)).family_hash() != base.family_hash()


def test_family_hash_never_equals_a_canonical_hash():
    base = Query(mode="distribution", methods="sample")
    assert base.family_hash() != base.canonical_hash()


def test_answer_epoch_keys_both_hashes_but_stays_out_of_the_document(monkeypatch):
    import importlib

    module = importlib.import_module("repro.api.query")
    query = Query(mode="distribution", methods="sample")
    digest, family = query.canonical_hash(), query.family_hash()
    assert json.loads(query.canonical_preimage())["answer_epoch"] == module.ANSWER_EPOCH
    assert "answer_epoch" not in query.to_dict()
    assert Query.from_dict(query.to_dict()) == query
    monkeypatch.setattr(module, "ANSWER_EPOCH", module.ANSWER_EPOCH - 1)
    assert query.canonical_hash() != digest
    assert query.family_hash() != family


def test_plain_import_binds_the_query_module(monkeypatch):
    # repro.api must not shadow its `query` submodule with the `repro.query`
    # function: patching the epoch through a plain import re-keys the hash.
    import types

    import repro
    import repro.api.query as query_module

    assert isinstance(query_module, types.ModuleType)
    assert callable(repro.query)
    query = Query(mode="distribution", methods="sample")
    digest = query.canonical_hash()
    monkeypatch.setattr(query_module, "ANSWER_EPOCH", query_module.ANSWER_EPOCH - 1)
    assert query.canonical_hash() != digest
