"""The HTTP front door, end to end over a live (threaded) server."""

import http.client
import json
import os
import re
import select
import signal
import socket
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from threading import Thread

import pytest

import repro
from repro.api import Query, Session
from repro.api.results import strip_volatile
from repro.errors import AnalysisError
from repro.obs import enable, metrics_snapshot, reset_metrics
from repro.service import QueryService, make_server
from repro.service.http import MAX_BODY_BYTES, ServiceRequestHandler
from repro.utils.io import encode_json

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


class _RecordingWriter:
    """A handler's ``wfile`` that records every write before making it."""

    def __init__(self, raw, writes: list) -> None:
        self._raw = raw
        self._writes = writes

    def write(self, data) -> int:
        self._writes.append(bytes(data))
        return self._raw.write(data)

    def __getattr__(self, name):
        return getattr(self._raw, name)


class _RecordingHandler(ServiceRequestHandler):
    """Records each connection's TCP_NODELAY flag, socket writes and log lines."""

    def setup(self) -> None:
        super().setup()
        self.server.nodelay.append(
            self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )
        self.wfile = _RecordingWriter(self.wfile, self.server.writes)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        self.server.log.append(format % args)


def _start(root, handler=None):
    instance = make_server(root=root)
    if handler is not None:
        instance.RequestHandlerClass = handler
        instance.nodelay, instance.writes, instance.log = [], [], []
    thread = Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    return instance, thread


def _stop(instance, thread) -> None:
    instance.shutdown()
    instance.server_close()
    thread.join(timeout=5)


@pytest.fixture
def server(store_root):
    instance, thread = _start(store_root)
    yield instance
    _stop(instance, thread)


@pytest.fixture
def recording_server(store_root):
    """A live server whose handlers record socket options, writes and logs."""
    instance, thread = _start(store_root, _RecordingHandler)
    yield instance
    _stop(instance, thread)


def _exchange(server, method: str, path: str, body=None, connection=None):
    """One request; (status, headers, raw body bytes)."""
    host, port = server.server_address[:2]
    own = connection is None
    if own:
        connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request(method, path, body=body, headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.headers, response.read()
    finally:
        if own:
            connection.close()


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


@pytest.mark.parametrize("stream", ["", "?stream=1"])
def test_a_repeated_axis_value_answers_400(server, stream):
    document = dict(SAMPLED, sizes=[16, 16], samples=8, seed=1)
    status, _, payload = _exchange(
        server, "POST", f"/v1/query{stream}", json.dumps(document).encode()
    )
    assert status == 400
    assert "sizes repeats 16" in json.loads(payload)["error"]


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


# -- the socket: Nagle off, one write per response ---------------------------


def test_accepted_sockets_have_nagle_off(recording_server):
    _exchange(recording_server, "GET", "/v1/healthz")
    assert recording_server.nodelay and all(recording_server.nodelay)


def _one_write(server, method, path, body=None) -> tuple[int, bytes]:
    """Make one request and check that its response left in one socket write."""
    server.writes.clear()
    status, _, payload = _exchange(server, method, path, body)
    assert len(server.writes) == 1, [len(write) for write in server.writes]
    (write,) = server.writes
    assert write.endswith(b"\r\n\r\n" + payload)
    return status, payload


def test_every_plain_response_is_one_write(recording_server, monkeypatch):
    server = recording_server
    body = json.dumps(SWEEP).encode()
    assert _one_write(server, "POST", "/v1/query", body)[0] == 200  # miss
    assert _one_write(server, "POST", "/v1/query", body)[0] == 200  # hit
    digest = Query.from_dict(SWEEP).canonical_hash()
    assert _one_write(server, "GET", f"/v1/result/{digest}")[0] == 200
    assert _one_write(server, "GET", "/v1/healthz")[0] == 200
    assert _one_write(server, "GET", "/v1/nope")[0] == 404
    assert _one_write(server, "POST", "/v1/query", b"{nope")[0] == 400
    # The early 400/413 answers that close the connection, too.
    for headers, expected in (
        ({"Content-Length": "-1"}, 400),
        ({"Content-Length": str(MAX_BODY_BYTES + 1)}, 413),
    ):
        server.writes.clear()
        assert _raw_post(server, headers)[0] == expected
        assert len(server.writes) == 1

    def explode(document):
        raise RuntimeError("kaboom")

    monkeypatch.setattr(server.service, "execute_document", explode)
    status, payload = _one_write(server, "POST", "/v1/query", body)
    assert status == 500 and "kaboom" in json.loads(payload)["error"]


def test_an_http_0_9_request_gets_the_bare_body(server):
    """HTTP/0.9 has no status line or headers: the answer is the body alone."""
    with socket.create_connection(server.server_address[:2], timeout=10) as sock:
        sock.sendall(b"GET /v1/healthz\r\n\r\n")
        received = b"".join(iter(lambda: sock.recv(65536), b""))
    assert json.loads(received)["status"] == "ok"


def test_every_stream_chunk_is_one_write(recording_server):
    server = recording_server
    server.writes.clear()
    status, _, payload = _exchange(
        server, "POST", "/v1/query?stream=1", json.dumps(SAMPLED).encode()
    )
    assert status == 200
    header, *chunks = server.writes
    assert header.endswith(b"\r\n\r\n") and b"Transfer-Encoding: chunked" in header
    assert len(chunks) >= 3 and chunks[-1] == b"0\r\n\r\n"
    lines = []
    for chunk in chunks[:-1]:
        size, _, rest = chunk.partition(b"\r\n")
        assert rest[-2:] == b"\r\n" and len(rest) - 2 == int(size, 16) > 0
        lines.append(rest[:-2])
    # Each chunk is one whole NDJSON line, in the compact encoding.
    assert b"".join(lines) == payload
    assert all(line == encode_json(json.loads(line)) for line in lines)


def test_keep_alive_requests_do_not_wait_for_a_delayed_ack(server):
    """Back-to-back POSTs on one connection: with Nagle on, each stalls ~40 ms."""
    body = json.dumps(SWEEP).encode()
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        assert _exchange(server, "POST", "/v1/query", body, connection)[0] == 200
        took = []
        for _ in range(20):
            started = time.perf_counter()
            status, headers, _ = _exchange(server, "POST", "/v1/query", body, connection)
            took.append(time.perf_counter() - started)
            assert status == 200 and headers["X-Repro-Cache"] == "hit"
    finally:
        connection.close()
    assert statistics.median(took) < 0.020, took


# -- error ids ---------------------------------------------------------------


def test_a_500_carries_an_error_id_that_the_log_repeats(recording_server, monkeypatch):
    server = recording_server

    def explode(document):
        raise RuntimeError("kaboom")

    monkeypatch.setattr(server.service, "execute_document", explode)
    status, _, payload = _exchange(server, "POST", "/v1/query", json.dumps(SWEEP).encode())
    assert status == 500
    error_id = json.loads(payload)["error_id"]
    assert re.fullmatch(r"[0-9a-f]{16}", error_id)
    # Access lines stay quiet; the failure is logged with its traceback.
    (entry,) = server.log
    assert error_id in entry and "Traceback" in entry and "kaboom" in entry
    # A second failure gets a fresh id.
    status, _, again = _exchange(server, "POST", "/v1/query", json.dumps(SWEEP).encode())
    assert json.loads(again)["error_id"] != error_id


def test_4xx_bodies_carry_no_error_id(server):
    status, _, payload = _exchange(server, "GET", "/v1/nope")
    assert status == 404 and set(json.loads(payload)) == {"error"}
    status, _, payload = _exchange(server, "POST", "/v1/query", b"{nope")
    assert status == 400 and set(json.loads(payload)) == {"error"}


def test_a_failed_get_answers_500_with_an_error_id(recording_server, monkeypatch):
    server = recording_server

    def explode():
        raise RuntimeError("no health")

    monkeypatch.setattr(server.service, "healthz", explode)
    status, _, payload = _exchange(server, "GET", "/v1/healthz")
    assert status == 500
    assert json.loads(payload)["error_id"] in server.log[0]


@pytest.mark.parametrize("error", [RuntimeError("mid-stream"), AnalysisError("mid-stream")])
def test_an_in_band_error_line_carries_an_error_id(recording_server, monkeypatch, error):
    server = recording_server

    def failing_stream(query):
        yield {"type": "progress", "draws": 1, "samples": 2, "cells": []}
        raise error

    monkeypatch.setattr(server.service, "execute_stream", failing_stream)
    status, _, payload = _exchange(
        server, "POST", "/v1/query?stream=1", json.dumps(SAMPLED).encode()
    )
    final = json.loads(payload.splitlines()[-1])
    assert status == 200 and final["type"] == "error"
    assert re.fullmatch(r"[0-9a-f]{16}", final["error_id"])
    assert final["error_id"] in server.log[0]


# -- one encoding: the same bytes on disk and on the wire ---------------------


def test_miss_hit_get_file_and_restart_bodies_are_the_same_bytes(store_root):
    body = json.dumps(SWEEP).encode()
    digest = Query.from_dict(SWEEP).canonical_hash()
    first, thread = _start(store_root)
    try:
        status, headers, miss = _exchange(first, "POST", "/v1/query", body)
        assert status == 200 and headers["X-Repro-Cache"] == "miss"
        _, headers, hit = _exchange(first, "POST", "/v1/query", body)
        assert headers["X-Repro-Cache"] == "hit"
        _, _, fetched = _exchange(first, "GET", f"/v1/result/{digest}")
    finally:
        _stop(first, thread)
    stored = QueryService(root=store_root).store.object_path(digest).read_bytes()
    restarted, thread = _start(store_root)
    try:
        _, headers, after_restart = _exchange(restarted, "POST", "/v1/query", body)
        assert headers["X-Repro-Cache"] == "hit"
    finally:
        _stop(restarted, thread)
    assert miss == hit == fetched == stored == after_restart
    # ... and those bytes are the compact, key-sorted, one-line encoding.
    assert miss == encode_json(json.loads(miss)) and miss.count(b"\n") == 1


def test_resumed_and_hit_bodies_are_the_stored_bytes(server):
    store = server.service.store
    small = json.dumps(SAMPLED).encode()
    large = json.dumps(dict(SAMPLED, samples=48)).encode()
    for body, expected in ((small, "miss"), (large, "resume"), (large, "hit")):
        status, headers, payload = _exchange(server, "POST", "/v1/query", body)
        assert status == 200 and headers["X-Repro-Cache"] == expected
        assert payload == store.object_path(headers["X-Repro-Hash"]).read_bytes()


def _indent_every_file(root) -> int:
    """Rewrite a store's JSON files the way earlier versions wrote them."""
    paths = sorted(root.rglob("*.json"))
    for path in paths:
        document = json.loads(path.read_text())
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return len(paths)


def test_a_store_written_indented_still_loads_and_serves_hits(store_root):
    service = QueryService(root=store_root)
    sweep = service.execute_document(SWEEP)
    sampled = service.execute_document(SAMPLED)
    # manifest + two objects + one estimator state
    assert _indent_every_file(store_root) == 4
    old_bytes = service.store.object_path(sweep.digest).read_bytes()
    assert old_bytes.startswith(b"{\n  ")

    instance, thread = _start(store_root)
    try:
        assert len(instance.service.store) == 2  # the indented manifest loads
        status, headers, payload = _exchange(
            instance, "POST", "/v1/query", json.dumps(SWEEP).encode()
        )
        assert status == 200 and headers["X-Repro-Cache"] == "hit"
        assert payload == old_bytes  # served as stored on disk
        assert json.loads(payload) == sweep.document
        _, headers, payload = _exchange(instance, "GET", f"/v1/result/{sampled.digest}")
        assert headers["X-Repro-Cache"] == "hit" and json.loads(payload) == sampled.document
        # A streamed hit on an indented object still sends one line per event.
        _, _, payload = _exchange(
            instance, "POST", "/v1/query?stream=1", json.dumps(SWEEP).encode()
        )
        (line,) = payload.splitlines()
        final = json.loads(line)
        assert final["cache"] == "hit" and final["document"] == sweep.document
        # The indented estimator state still resumes a larger budget.
        larger = json.dumps(dict(SAMPLED, samples=48)).encode()
        _, headers, _ = _exchange(instance, "POST", "/v1/query", larger)
        assert headers["X-Repro-Cache"] == "resume"
    finally:
        _stop(instance, thread)


# -- repro serve stops on SIGINT and SIGTERM ----------------------------------

TWO_CELL_SIMULATE = {
    "kind": "repro-query",
    "version": 1,
    "mode": "simulate",
    "topologies": ["cycle"],
    "sizes": [6, 8],
    "algorithms": ["largest-id"],
}


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@pytest.mark.parametrize(
    "signum, max_parallel",
    [(signal.SIGINT, 1), (signal.SIGTERM, 1), (signal.SIGTERM, 2)],
    ids=["sigint", "sigterm", "sigterm-with-pool-workers"],
)
def test_repro_serve_stops_cleanly_on_a_signal(tmp_path, signum, max_parallel):
    """Started the way a shell starts a background job (SIGINT ignored), it still stops.

    The signal goes to the whole process group, so with ``--max-parallel 2``
    the pool workers that answered a two-cell query get it too.
    """
    source = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(source), PYTHONUNBUFFERED="1", REPRO_OBS="off")
    command = [
        sys.executable, "-m", "repro", "serve", "--port", "0", "--quiet",
        "--store", str(tmp_path / "store"), "--max-parallel", str(max_parallel),
    ]
    stderr_path = tmp_path / "stderr.txt"
    with open(stderr_path, "wb") as stderr:
        process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=env,
            preexec_fn=_ignore_sigint,
            start_new_session=True,
        )
    try:
        ready, _, _ = select.select([process.stdout], [], [], 60)
        line = process.stdout.readline().decode() if ready else ""
        assert "listening on http://" in line, line
        url = line.split("listening on ", 1)[1].split()[0]
        request = urllib.request.Request(
            f"{url}/v1/query",
            data=json.dumps(TWO_CELL_SIMULATE).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            assert response.status == 200
        os.killpg(process.pid, signum)
        # 0, not -signum: serve() returned through its finally (server_close).
        assert process.wait(timeout=10) == 0
        assert "Traceback" not in stderr_path.read_text()
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
        process.stdout.close()
