"""The stdlib HTTP front door of the query service (``repro serve``).

Three endpoints, JSON in and out, no dependencies beyond ``http.server``:

* ``POST /v1/query`` — body is a ``repro-query`` document.  Answers with
  the ``repro-result`` document through the service's cache tiers; the
  ``X-Repro-Cache`` header says how (``hit`` / ``resume`` / ``miss``) and
  ``X-Repro-Hash`` carries the canonical content address.  With
  ``?stream=1`` a sampling query streams chunked NDJSON instead: one
  ``{"type": "progress"}`` line per draw-budget increment (current
  estimate, standard error, 95% CI per cell — the interval visibly
  tightens), then the final ``{"type": "result"}`` line with the full
  document.
* ``GET /v1/result/<hash>`` — a stored result document by content address
  (404 when the store has no such object).
* ``GET /v1/healthz`` — liveness + store statistics.

Every request gets an answer.  Malformed bodies, unknown query fields and
a missing, negative or non-integer ``Content-Length`` answer 400 with a
JSON error document, a body over :data:`MAX_BODY_BYTES` 413 (both before
any body byte is read), unknown paths 404, and any other failure 500.  A
failure after a streamed response has sent its 200 arrives in-band, as a
final ``{"type": "error"}`` line.  A 500 body and an in-band error line
carry an ``error_id``, a random hex string the server log repeats next to
the failure.  The server is a :class:`~http.server.ThreadingHTTPServer`
(clients never block each other on I/O) over the thread-safe
:class:`~repro.service.service.QueryService`.

Bodies are compact, key-sorted, one-line JSON
(:func:`~repro.utils.io.encode_json`); a result document goes out as the
bytes the store holds.  Each response leaves in one socket write — header
block and body together, and one write per stream chunk — over a socket
with Nagle's algorithm off, so no send waits for the client's delayed ACK.
"""

from __future__ import annotations

import json
import os
import signal
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from repro.errors import AnalysisError, ConfigurationError, ReproError
from repro.service.service import QueryService
from repro.utils.io import encode_json

#: The protocol prefix every route lives under.
API_PREFIX = "/v1"

#: Largest accepted request body, in bytes (a query document is ~1 KiB).
MAX_BODY_BYTES = 1 << 20


class ServiceServer(ThreadingHTTPServer):
    """A threading HTTP server owning one :class:`QueryService`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: QueryService, quiet: bool = True) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.service = service
        self.quiet = quiet

    @property
    def url(self) -> str:
        """The server's base URL (with the actually bound port)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Route ``/v1/*`` requests onto the owning server's service."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Every response is one write, so nothing is left for Nagle to coalesce;
    # with it on, a keep-alive client's next request waits out its own
    # delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------
    @property
    def service(self) -> QueryService:
        return self.server.service  # type: ignore[attr-defined]

    def log_request(self, code="-", size="-") -> None:
        if not getattr(self.server, "quiet", True):
            super().log_request(code, size)

    def _send_body(self, status: int, body: bytes, headers: Optional[dict] = None) -> None:
        """Send a complete JSON response — header block and body — in one write."""
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if not hasattr(self, "_headers_buffer"):  # HTTP/0.9: no header block
            self.wfile.write(body)
            return
        # end_headers() would send the header block on its own; the body
        # joins http.server's header buffer so flush_headers() sends both.
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def _send_json(self, status: int, document: dict, headers: Optional[dict] = None) -> None:
        self._send_body(status, encode_json(document), headers)

    def _send_error_json(self, status: int, message: str, close: bool = False) -> None:
        headers = {"Connection": "close"} if close else None
        self._send_json(status, {"error": message}, headers=headers)

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` once a 400/413 has answered instead.

        The length is checked before anything is read: a negative length
        would block the read until the client hangs up.  A rejected body
        stays unread, so the connection closes after the error.
        """
        raw = self.headers.get("Content-Length")
        digits = (raw or "").strip()
        if not (digits.isascii() and digits.isdigit()):
            self._send_error_json(
                400, f"Content-Length must be a non-negative integer, got {raw!r}", close=True
            )
            return None
        length = int(digits)
        if length > MAX_BODY_BYTES:
            self._send_error_json(
                413,
                f"request body of {length} bytes exceeds the limit of {MAX_BODY_BYTES}",
                close=True,
            )
            return None
        return self.rfile.read(length)

    def _failure(self, exc: Exception) -> dict:
        """The error fields of a failed request, logged under a fresh ``error_id``.

        Library errors speak for themselves, so the log gets one line;
        anything else is a bug, so its traceback goes to the log.  Either
        way the client's ``error_id`` finds the entry.
        """
        error_id = os.urandom(8).hex()
        if isinstance(exc, ReproError):
            message = str(exc)
            self.log_error("error %s on %s: %s", error_id, self.path, message)
        else:
            message = f"internal error: {type(exc).__name__}: {exc}"
            self.log_error(
                "internal error %s on %s\n%s", error_id, self.path, traceback.format_exc()
            )
        return {"error": message, "error_id": error_id}

    def _write_chunk(self, payload: bytes) -> None:
        """Send one chunk of a chunked response — size line, payload, CRLF — in one write."""
        self.wfile.write(b"%x\r\n%b\r\n" % (len(payload), payload))

    # -- routes ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        try:
            self._get(urlparse(self.path).path)
        except Exception as exc:  # noqa: BLE001 - every request gets an answer
            self._send_json(500, self._failure(exc))

    def _get(self, path: str) -> None:
        if path == f"{API_PREFIX}/healthz":
            self._send_json(200, self.service.healthz())
            return
        prefix = f"{API_PREFIX}/result/"
        if path.startswith(prefix):
            digest = path[len(prefix):]
            try:
                body, _ = self.service.store.get(digest)
            except ConfigurationError as exc:
                self._send_error_json(400, str(exc))
                return
            if body is None:
                self._send_error_json(404, f"no stored result for {digest}")
                return
            self._send_body(200, body, headers={"X-Repro-Cache": "hit", "X-Repro-Hash": digest})
            return
        self._send_error_json(404, f"unknown path {path!r}")

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        parsed = urlparse(self.path)
        if parsed.path != f"{API_PREFIX}/query":
            self._send_error_json(404, f"unknown path {parsed.path!r}")
            return
        body = self._read_body()
        if body is None:
            return
        try:
            document = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_error_json(400, f"request body is not valid JSON: {exc}")
            return
        stream = parse_qs(parsed.query).get("stream", ["0"])[0] not in ("", "0", "false")
        try:
            if stream:
                self._stream_query(document)
            else:
                outcome = self.service.execute_document(document)
                self._send_body(
                    200,
                    outcome.body,
                    headers={
                        "X-Repro-Cache": outcome.cached,
                        "X-Repro-Hash": outcome.digest,
                    },
                )
        except (ConfigurationError, AnalysisError) as exc:
            self._send_error_json(400, str(exc))
        except Exception as exc:  # noqa: BLE001 - every request gets an answer
            self._send_json(500, self._failure(exc))

    def _stream_query(self, document: dict) -> None:
        """Answer ``POST /v1/query?stream=1`` as chunked NDJSON events."""
        from repro.api.query import Query

        query = Query.from_dict(document)  # validate before committing to 200
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("X-Repro-Hash", query.canonical_hash())
        self.end_headers()
        try:
            for event in self.service.execute_stream(query):
                self._write_chunk(encode_json(event))
        except ConnectionError:
            self.close_connection = True  # the client is gone
            return
        except Exception as exc:  # noqa: BLE001 - the 200 is sent: report in-band
            self._write_chunk(encode_json({"type": "error", **self._failure(exc)}))
        self._write_chunk(b"")


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    root: str = "repro-store",
    max_parallel: int = 1,
    service: Optional[QueryService] = None,
    quiet: bool = True,
    store_max_objects: Optional[int] = None,
    store_max_bytes: Optional[int] = None,
) -> ServiceServer:
    """Build a ready-to-serve :class:`ServiceServer` (port 0 = ephemeral).

    Startup recovers any crash-interrupted jobs the store's ledger still
    records, so a restarted service finishes what its predecessor began
    before taking traffic.  ``store_max_objects`` / ``store_max_bytes``
    bound the on-disk store via LRU eviction (see
    :meth:`~repro.service.store.ResultStore.gc`).
    """
    if service is None:
        service = QueryService(
            root=root,
            max_parallel=max_parallel,
            store_max_objects=store_max_objects,
            store_max_bytes=store_max_bytes,
        )
    service.recover()
    return ServiceServer((host, port), service, quiet=quiet)


def serve(
    host: str = "127.0.0.1",
    port: int = 8000,
    root: str = "repro-store",
    max_parallel: int = 1,
    quiet: bool = False,
    store_max_objects: Optional[int] = None,
    store_max_bytes: Optional[int] = None,
) -> int:
    """Run the service until interrupted (the ``repro serve`` entry point).

    SIGINT and SIGTERM both stop it through ``KeyboardInterrupt``, which
    closes the listening socket.  SIGINT gets Python's default handler back
    even when the process inherited it ignored, as a non-interactive shell
    does for a background job.
    """
    server = make_server(
        host=host,
        port=port,
        root=root,
        max_parallel=max_parallel,
        quiet=quiet,
        store_max_objects=store_max_objects,
        store_max_bytes=store_max_bytes,
    )
    previous = {
        signal.SIGINT: signal.signal(signal.SIGINT, signal.default_int_handler),
        signal.SIGTERM: signal.signal(signal.SIGTERM, signal.default_int_handler),
    }
    try:
        print(f"repro serve: listening on {server.url} (store: {server.service.store.root})")
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0
