"""The HTTP front door, end to end over a live (threaded) server."""

import http.client
import json
import subprocess
import sys
import urllib.error
import urllib.request
from threading import Thread

import pytest

from repro.api import Query, Session
from repro.api.results import strip_volatile
from repro.errors import AnalysisError
from repro.obs import enable, metrics_snapshot, reset_metrics
from repro.service import make_server

SWEEP = {
    "kind": "repro-query",
    "version": 1,
    "mode": "sweep",
    "topologies": ["cycle"],
    "sizes": [6],
    "algorithms": ["largest-id"],
    "adversaries": ["branch-and-bound"],
}

SAMPLED = {
    "kind": "repro-query",
    "version": 1,
    "mode": "distribution",
    "topologies": ["cycle"],
    "sizes": [10],
    "algorithms": ["greedy-mis"],
    "methods": ["sample"],
    "samples": 24,
    "seed": 5,
}


@pytest.fixture
def server(store_root):
    instance = make_server(root=store_root)
    thread = Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.server_close()
    thread.join(timeout=5)


def _post(url: str, document: dict):
    request = urllib.request.Request(
        url, data=json.dumps(document).encode(), headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request) as response:
        return json.load(response), dict(response.headers)


def test_healthz(server):
    with urllib.request.urlopen(f"{server.url}/v1/healthz") as response:
        payload = json.load(response)
    assert payload["status"] == "ok"
    assert "store" in payload


def test_post_query_miss_then_hit_bit_identical(server):
    first, headers1 = _post(f"{server.url}/v1/query", SWEEP)
    second, headers2 = _post(f"{server.url}/v1/query", SWEEP)
    assert headers1["X-Repro-Cache"] == "miss"
    assert headers2["X-Repro-Cache"] == "hit"
    assert headers1["X-Repro-Hash"] == headers2["X-Repro-Hash"]
    assert first["kind"] == "repro-result" and first["version"] == 1
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_second_post_recomputes_nothing(server):
    """The acceptance check: a store hit leaves every compute counter flat."""
    enable()
    reset_metrics()
    _post(f"{server.url}/v1/query", SAMPLED)  # cold: kernel counters move
    before = metrics_snapshot()["counters"]
    assert before.get("kernel.batches", 0) > 0
    assert before.get("kernel.rows", 0) > 0
    _, headers = _post(f"{server.url}/v1/query", SAMPLED)
    after = metrics_snapshot()["counters"]
    assert headers["X-Repro-Cache"] == "hit"
    for name in ("kernel.batches", "kernel.rows", "engine.runs"):
        assert after.get(name, 0) == before.get(name, 0), name
    assert after["service.cache.l1_hits"] == before.get("service.cache.l1_hits", 0) + 1


def test_get_result_by_hash(server):
    document, headers = _post(f"{server.url}/v1/query", SWEEP)
    digest = headers["X-Repro-Hash"]
    assert digest == Query.from_dict(SWEEP).canonical_hash()
    with urllib.request.urlopen(f"{server.url}/v1/result/{digest}") as response:
        assert json.load(response) == document


def test_get_missing_result_404(server):
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(f"{server.url}/v1/result/{'0' * 64}")
    assert info.value.code == 404


def test_get_malformed_hash_400(server):
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(f"{server.url}/v1/result/not-a-hash")
    assert info.value.code == 400


def test_post_invalid_json_400(server):
    request = urllib.request.Request(f"{server.url}/v1/query", data=b"{nope")
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(request)
    assert info.value.code == 400


def test_post_unknown_field_400(server):
    bad = dict(SWEEP, cromulence=3)
    request = urllib.request.Request(f"{server.url}/v1/query", data=json.dumps(bad).encode())
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(request)
    assert info.value.code == 400
    assert "cromulence" in json.load(info.value)["error"]


def test_unknown_path_404(server):
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(f"{server.url}/v1/nope")
    assert info.value.code == 404


def test_streamed_query_sends_progress_then_result(server):
    request = urllib.request.Request(
        f"{server.url}/v1/query?stream=1", data=json.dumps(SAMPLED).encode()
    )
    with urllib.request.urlopen(request) as response:
        assert response.headers["Content-Type"] == "application/x-ndjson"
        events = [json.loads(line) for line in response.read().decode().strip().splitlines()]
    kinds = [event["type"] for event in events]
    assert kinds[-1] == "result"
    assert kinds.count("progress") >= 2
    errors = [
        event["cells"][0]["std_error"] for event in events if event["type"] == "progress"
    ]
    assert errors[-1] < errors[0]
    # The streamed final document equals the plain-POST answer (a store hit now).
    document, headers = _post(f"{server.url}/v1/query", SAMPLED)
    assert headers["X-Repro-Cache"] == "hit"
    assert document == events[-1]["document"]


def test_store_survives_a_process_restart(server, store_root):
    """The acceptance check: a hit across a *fresh subprocess* on the store."""
    document, headers = _post(f"{server.url}/v1/query", SWEEP)
    digest = headers["X-Repro-Hash"]
    script = (
        "import json, sys\n"
        "from repro.api import Query\n"
        "from repro.service import QueryService\n"
        "service = QueryService(root=sys.argv[1])\n"
        "query = Query.from_dict(json.loads(sys.argv[2]))\n"
        "outcome = service.execute(query)\n"
        "print(json.dumps({'tier': outcome.tier, 'digest': outcome.digest,\n"
        "                  'document': outcome.document}))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script, str(store_root), json.dumps(SWEEP)],
        capture_output=True,
        text=True,
        check=True,
    )
    answer = json.loads(completed.stdout)
    assert answer["tier"] == "l2"
    assert answer["digest"] == digest
    assert answer["document"] == document


def _raw_post(server, headers: dict, body: bytes = b"", path: str = "/v1/query"):
    """POST with hand-set headers; (status, parsed JSON body). Times out, never hangs."""
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.putrequest("POST", path, skip_accept_encoding=True)
        for name, value in headers.items():
            connection.putheader(name, value)
        connection.endheaders()
        if body:
            connection.send(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def test_non_library_error_answers_500_json(server, monkeypatch):
    def explode(document):
        raise RuntimeError("kaboom")

    monkeypatch.setattr(server.service, "execute_document", explode)
    body = json.dumps(SWEEP).encode()
    status, payload = _raw_post(server, {"Content-Length": str(len(body))}, body)
    assert status == 500
    assert "RuntimeError" in payload["error"] and "kaboom" in payload["error"]
    # ... and the server keeps answering.
    with urllib.request.urlopen(f"{server.url}/v1/healthz") as response:
        assert response.status == 200


def test_string_budget_answers_400_json(server):
    body = json.dumps({"kind": "repro-query", "version": 1, "samples": "5"}).encode()
    status, payload = _raw_post(server, {"Content-Length": str(len(body))}, body)
    assert status == 400
    assert "samples" in payload["error"]


@pytest.mark.parametrize("length", ["-1", "abc", "1.5", None])
def test_bad_content_length_answers_400_without_reading(server, length):
    headers = {} if length is None else {"Content-Length": length}
    status, payload = _raw_post(server, headers)
    assert status == 400
    assert "Content-Length" in payload["error"]


def test_oversized_body_answers_413_without_reading(server):
    from repro.service.http import MAX_BODY_BYTES

    status, payload = _raw_post(server, {"Content-Length": str(MAX_BODY_BYTES + 1)})
    assert status == 413
    assert "exceeds" in payload["error"]


@pytest.mark.parametrize("error", [RuntimeError("mid-stream"), AnalysisError("mid-stream")])
def test_stream_failure_after_200_ends_with_an_error_line(server, monkeypatch, error):
    def failing_stream(query):
        yield {"type": "progress", "draws": 1, "samples": 2, "cells": []}
        raise error

    monkeypatch.setattr(server.service, "execute_stream", failing_stream)
    request = urllib.request.Request(
        f"{server.url}/v1/query?stream=1", data=json.dumps(SAMPLED).encode()
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        assert response.status == 200
        lines = response.read().decode().strip().splitlines()
    events = [json.loads(line) for line in lines]
    assert [event["type"] for event in events] == ["progress", "error"]
    assert "mid-stream" in events[-1]["error"]


def test_streamed_final_rows_equal_session_rows(server):
    document = dict(SAMPLED, methods=["exact", "sample"], sizes=[7])
    request = urllib.request.Request(
        f"{server.url}/v1/query?stream=1", data=json.dumps(document).encode()
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        final = json.loads(response.read().decode().strip().splitlines()[-1])
    assert final["type"] == "result"
    expected = Session().run(Query.from_dict(document))
    assert strip_volatile(final["document"]["rows"]) == strip_volatile(expected.rows)
