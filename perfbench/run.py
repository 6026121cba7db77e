"""End-to-end benchmark: three workloads through the program's real front doors.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the program from ``src/``.
Workloads (see ``perfbench/README.md`` for their queries and why each was
chosen):

* ``query-cold``   -- a fixed deck of cold queries through ``Session.run``
  in a fresh child process;
* ``scale-stream`` -- ``scale`` mode on streamed CSR topologies, the same way;
* ``serve-mix``    -- ``repro serve`` over HTTP: open-loop store hits beside
  a closed loop of cold, resumed and streamed queries.

Every input derives from ``--seed``; every answer is checked.  With
``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from proctree import tree_peak_rss_kib
from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

#: Timed start-ups per run (after one untimed start that writes bytecode).
SETUP_STARTS = 9
#: Decks per untraced run, each in a fresh child process; the run reports
#: the median.  On a 2-vCPU VM, scale-stream's pool cells vary by up to 40 %
#: between the decks of one run; a run of one deck spread 0.29 (IQR/median
#: over ten seeds).  More decks would not fit ten runs of every workload in
#: half an hour.
DECKS = {"query-cold": 1, "scale-stream": 2}
#: Longest a whole run may take: a deck child still running then is stopped
#: and the run fails.
RUN_BUDGET_S = 165
STARTED = time.perf_counter()
#: serve-mix: open-loop rate of store hits, requests per second, and the
#: fewest hits sent (the loop keeps going after the cold loop ends until
#: then), so that hit_p95_ms rests on at least ten samples beyond it.
HIT_RATE = 5.0
MIN_HITS = 220
#: serve-mix: cold-loop passes per second of ``--seconds`` (a pass takes
#: about 1 s on a 2-core machine), and the fewest passes: each pass gives
#: 6 cold and 2 streamed samples, so 10 passes give every median at least
#: ten samples beyond it.
PASSES_PER_SECOND = 0.9
MIN_PASSES = 10

#: Figures only some workloads have.  ``BENCHMARK.json`` lists them with the
#: per-layer metrics, because every end-to-end metric must be reported for
#: every workload; a ``--trace 1`` line reads them from its untraced run and
#: gives 0 where the workload lacks the mechanism.
WORKLOAD_METRICS = {
    "nodes_per_s": "1/s",
    "hit_p50_ms": "ms",
    "hit_p95_ms": "ms",
    "cold_p50_ms": "ms",
    "stream_first_p50_ms": "ms",
}


def _min_samples(p: float) -> int:
    """Fewest samples percentile ``p`` may rest on: ten beyond it."""
    return math.ceil(10 / (1 - p))


# ----------------------------------------------------------------------
# inputs: every query derives from the workload seed
# ----------------------------------------------------------------------
def _query(**fields) -> dict:
    return {"kind": "repro-query", "version": 1, **fields}


def _seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    return rng, lambda: rng.randrange(2**31)


def query_cold_deck(seed: int) -> list[dict]:
    """About ten cold queries; no query reuses a graph an earlier one built."""
    _, fresh = _seeds("query-cold", seed)
    sample = {"mode": "distribution", "methods": ["sample"], "samples": 64}
    return [
        _query(**sample, topologies=["cycle"], sizes=[512], algorithms=["largest-id"], seed=fresh()),
        _query(**sample, topologies=["cycle"], sizes=[1024], algorithms=["largest-id"], seed=fresh()),
        _query(**sample, topologies=["random-tree"], sizes=[512], algorithms=["largest-id"], seed=fresh()),
        _query(**sample, topologies=["random-tree"], sizes=[768], algorithms=["largest-id"], seed=fresh()),
        _query(mode="simulate", topologies=["random-tree"], sizes=[640], algorithms=["largest-id"], seed=fresh()),
        _query(**sample, topologies=["cycle"], sizes=[128], algorithms=["greedy-mis"], seed=fresh()),
        _query(**sample, topologies=["random-tree"], sizes=[128], algorithms=["greedy-coloring"], seed=fresh()),
        _query(
            mode="worst-case", topologies=["cycle"], sizes=[9], algorithms=["largest-id"],
            adversaries=["branch-and-bound"], measure="sum", seed=fresh(),
        ),
        # The grid of examples/spec.json, with a derived seed.
        _query(
            mode="sweep", topologies=["cycle", "path"], sizes=[6, 8], algorithms=["largest-id"],
            adversaries=["branch-and-bound"], measure="average", seed=fresh(),
        ),
    ]


def scale_stream_deck(seed: int) -> list[dict]:
    """Streamed-CSR sampling: three cells on the warm pool, one serial."""
    _, fresh = _seeds("scale-stream", seed)
    scale = {"mode": "scale", "algorithms": ["largest-id"], "samples": 8}
    return [
        _query(**scale, topologies=["cycle"], sizes=[10**6], workers=2, seed=fresh()),
        _query(**scale, topologies=["random-tree"], sizes=[10**5], workers=2, seed=fresh()),
        _query(**scale, topologies=["gnp"], sizes=[10**5], workers=2, seed=fresh()),
        _query(**scale, topologies=["cycle"], sizes=[10**5], workers=1, seed=fresh()),
    ]


def serve_hit_set(seed: int) -> list[dict]:
    """The small queries the prime stores and the hit loop asks for again."""
    _, fresh = _seeds("serve-mix:hits", seed)
    sample = {"mode": "distribution", "methods": ["sample"], "samples": 32, "algorithms": ["largest-id"]}
    return [
        _query(mode="sweep", topologies=["cycle"], sizes=[6], adversaries=["branch-and-bound"], seed=fresh()),
        _query(mode="sweep", topologies=["path"], sizes=[6], adversaries=["branch-and-bound"], seed=fresh()),
        _query(**sample, topologies=["cycle"], sizes=[64], seed=fresh()),
        _query(**sample, topologies=["random-tree"], sizes=[64], seed=fresh()),
        _query(mode="simulate", topologies=["random-tree"], sizes=[128], seed=fresh()),
        _query(mode="simulate", topologies=["cycle"], sizes=[128], seed=fresh()),
        _query(mode="worst-case", topologies=["cycle"], sizes=[7], adversaries=["branch-and-bound"], measure="sum", seed=fresh()),
        _query(mode="worst-case", topologies=["path"], sizes=[6], adversaries=["branch-and-bound"], measure="sum", seed=fresh()),
    ]


def serve_hit_schedule(seed: int, count: int, keys: int) -> list[tuple[float, int]]:
    """(due offset in s, hit-set index) of each hit.

    Hit ``i`` is due at ``(i + u) / HIT_RATE`` with ``u`` uniform in
    ±0.4: a fixed rate whose random phase keeps the hits from locking onto
    the cold loop's period, without the bursts of Poisson arrivals, which
    queue up behind each other on the one connection.  Keys follow a seeded
    Zipf popularity (weight 1/rank over a seeded order of the hit set).
    """
    rng, _ = _seeds("serve-mix:popularity", seed)
    ranks = list(range(keys))
    rng.shuffle(ranks)
    weights = [1.0 / (1 + ranks[key]) for key in range(keys)]
    keys_drawn = rng.choices(range(keys), weights=weights, k=count)
    return [((index + rng.uniform(-0.4, 0.4)) / HIT_RATE, key) for index, key in enumerate(keys_drawn)]


def serve_cold_ops(seed: int, passes: int) -> list[tuple[str, dict]]:
    """The closed loop's fixed sequence: (expected outcome, query) pairs.

    Every cycle distribution builds and compiles a graph no earlier query
    built: each pass uses a cycle length no other pass uses.  A run of
    ``passes`` passes always uses the same lengths in a seeded order, so
    runs differ in order and seeds, not in work.  Random trees are new with
    every seed.  The branch-and-bound misses search 7-node graphs, whose
    cost is the search: a warm cycle-7 sweep takes 19 ms against 22 ms cold.
    """
    rng, fresh = _seeds("serve-mix:cold", seed)

    def lengths(centre: int) -> list[int]:
        values = list(range(centre - passes // 2, centre - passes // 2 + passes))
        rng.shuffle(values)
        return values

    sample = {"mode": "distribution", "methods": ["sample"]}
    ops: list[tuple[str, dict]] = []
    for small_n, mis_n, stream_n in zip(lengths(160), lengths(40), lengths(96)):
        sweep = _query(mode="sweep", topologies=["cycle"], sizes=[7], adversaries=["branch-and-bound"], seed=fresh())
        worst = _query(mode="worst-case", topologies=["path"], sizes=[7], adversaries=["branch-and-bound"], measure="sum", seed=fresh())
        small = _query(**sample, topologies=["cycle"], sizes=[small_n], algorithms=["largest-id"], samples=16, seed=fresh())
        mis = _query(**sample, topologies=["cycle"], sizes=[mis_n], algorithms=["greedy-mis"], samples=16, seed=fresh())
        streamed = [
            _query(**sample, topologies=["random-tree"], sizes=[128], algorithms=["largest-id"], samples=32, seed=fresh()),
            _query(**sample, topologies=["cycle"], sizes=[stream_n], algorithms=["largest-id"], samples=32, seed=fresh()),
        ]
        ops += [
            ("miss", sweep),
            ("miss", small),
            ("resume", dict(small, samples=32)),
            ("stream", streamed[0]),
            ("verify", streamed[0]),
            ("miss", worst),
            ("miss", mis),
            ("resume", dict(mis, samples=32)),
            ("stream", streamed[1]),
            ("verify", streamed[1]),
        ]
    return ops


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
class Checker:
    """Checks result documents against the queries that asked for them."""

    def __init__(self) -> None:
        from repro.api.query import Query
        from repro.theory.bounds import largest_id_sum_upper_bound

        self._query = Query
        self._sum_bound = largest_id_sum_upper_bound

    def digest(self, document: dict) -> str:
        return self._query.from_dict(document).canonical_hash()

    def problems(self, query: dict, result, digest=None) -> list[str]:
        """Everything wrong with ``result`` as the answer to ``query``.

        A document too malformed to check (a missing field, a wrong type) is
        a problem too, never an exception.
        """
        try:
            return self._problems(query, result, digest)
        except Exception as exc:
            return [f"malformed result ({type(exc).__name__}: {exc})"]

    def _problems(self, query: dict, result, digest) -> list[str]:
        if not isinstance(result, dict):
            return ["no result document"]
        if result.get("kind") != "repro-result" or result.get("version") != 1:
            return [f"not a repro-result v1 document: {result.get('kind')!r} v{result.get('version')!r}"]
        expected = self.digest(query)
        found = []
        try:
            answered = self.digest(result.get("query") or {})
        except Exception as exc:  # the echoed query does not even parse
            answered = f"unparseable ({exc})"
        if answered != expected:
            found.append(f"result is for query {answered}, not {expected}")
        if digest is not None and digest != expected:
            found.append(f"X-Repro-Hash {digest} is not the query digest {expected}")
        if result.get("mode") != query["mode"] or not result.get("rows"):
            found.append("mode mismatch or no rows")
            return found
        for row in result["rows"]:
            n = row.get("n", 0)
            sampled = row.get("method") == "sample" or query["mode"] == "scale"
            if sampled and row.get("topology") == "cycle" and row.get("algorithm") == "largest-id":
                average = row["average"]["mean"]
                classic = row["max"].get("min", row["max"]["mean"])
                # The paper's gap: O(log n) on average, Θ(n) in the classic measure.
                if not (average < math.log2(n) and classic >= n / 2 - 1):
                    found.append(f"cycle-{n}: average {average} / classic {classic} miss the gap")
        if query["mode"] == "worst-case" and query.get("measure") == "sum" and query["topologies"] == ["cycle"]:
            n = query["sizes"][0]
            if result["measures"].get("sum") != self._sum_bound(n):
                found.append(f"cycle-{n} worst-case sum {result['measures'].get('sum')} != {self._sum_bound(n)}")
        return found


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def child_env() -> dict:
    """The environment of every program process: src on the path, obs off."""
    dropped = ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_") and k not in dropped}
    env.update(PYTHONPATH=str(SRC), REPRO_OBS="off", PYTHONUNBUFFERED="1")
    return env


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    return proc.stdout.readline().decode("utf-8", "replace") if ready else ""


def _stop(proc: subprocess.Popen, sig=signal.SIGINT) -> None:
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


def median_setup(command: list[str]) -> float:
    """Median seconds from launching ``command`` to its "ready" line."""
    times = []
    for attempt in range(SETUP_STARTS + 1):
        started = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
        try:
            line = _read_line(proc, 60)
            elapsed = time.perf_counter() - started
            if line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {' '.join(command)}")
            proc.wait(timeout=60)
        finally:
            _stop(proc, signal.SIGKILL)
        if attempt:  # the first start writes the bytecode cache, untimed
            times.append(elapsed)
    return statistics.median(times)


def run_deck(deck: list[dict], run_dir: Path, traced: bool) -> dict:
    """Run one deck in a fresh child process; its timings and documents."""
    deck_path, out_path = run_dir / "deck.json", run_dir / "out.json"
    deck_path.write_text(json.dumps(deck))
    command = [sys.executable, str(HERE / "child.py"), "deck", str(deck_path), str(out_path)]
    # Its own session, so that a timeout can stop its pool workers too.
    proc = subprocess.Popen(
        command + (["--trace"] if traced else []), env=child_env(), cwd=ROOT, start_new_session=True
    )
    try:
        code = proc.wait(timeout=max(1.0, STARTED + RUN_BUDGET_S - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError("deck child timed out")
    if code != 0:
        raise RuntimeError(f"deck child exited with {code}")
    output = json.loads(out_path.read_text())
    out_path.unlink()
    return output


def check_deck(checker: Checker, deck: list[dict], output: dict) -> tuple[int, int, list[str]]:
    failed, notes = 0, []
    if len(output["entries"]) != len(deck):
        failed += abs(len(deck) - len(output["entries"]))
        notes.append(f"{len(output['entries'])} answers to a deck of {len(deck)}")
    for query, entry in zip(deck, output["entries"]):
        problems = [entry["error"]] if entry["error"] else checker.problems(query, entry["document"])
        if problems:
            failed += 1
            notes.append(f"{query['mode']} {query['topologies']} {query['sizes']}: {'; '.join(problems)}")
    return len(deck), failed, notes


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def deck_workload(name: str, deck: list[dict], pool: int, args, run_dir: Path) -> dict:
    checker = Checker()
    metrics: dict = {}
    if not args.trace:
        command = [sys.executable, str(HERE / "child.py"), "setup"] + ([str(pool)] if pool else [])
        metrics["setup_s"] = (median_setup(command), "s")
    attempted = failed = 0
    notes: list[str] = []
    outputs = []
    for _ in range(1 if args.trace else DECKS[name]):
        output = run_deck(deck, run_dir, traced=False)
        more_attempted, more_failed, more_notes = check_deck(checker, deck, output)
        attempted, failed, notes = attempted + more_attempted, failed + more_failed, notes + more_notes
        outputs.append(output)
    wall = statistics.median(output["wall_s"] for output in outputs)
    if args.trace:
        traced = run_deck(deck, run_dir, traced=True)
        more_attempted, more_failed, more_notes = check_deck(checker, deck, traced)
        attempted, failed, notes = attempted + more_attempted, failed + more_failed, notes + more_notes
        layers = dict(traced["layers"])
        layers["trace.overhead_share"] = traced["wall_s"] / wall - 1
        layers["http.gap_p50_ms"] = 0.0
        layers.update(dict.fromkeys(WORKLOAD_METRICS, 0.0))
        if name == "scale-stream":
            layers["nodes_per_s"] = sum(q["sizes"][0] * q["samples"] for q in deck) / wall
        metrics = layer_metrics(layers)
        report_absent(traced)
    else:
        metrics["wall_s"] = (wall, "s")
        metrics["peak_rss_mib"] = (statistics.median(output["peak_rss_kib"] for output in outputs) / 1024, "MiB")
        for index, query in enumerate(deck):
            seconds = ", ".join(f"{output['entries'][index]['seconds']:.3f}" for output in outputs)
            print(f"  {query['mode']:<12} {query['topologies']} {query['sizes']}: {seconds} s")
        if name == "scale-stream":
            nodes = sum(q["sizes"][0] * q["samples"] for q in deck)
            print(f"  nodes_per_s = {nodes / wall:.6g} 1/s (a per-layer metric; --trace 1 reports it)")
    return {"attempted": attempted, "failed": failed, "notes": notes, "metrics": metrics}


def layer_metrics(layers: dict) -> dict:
    """The ``--trace 1`` metrics: the workload figures, then the layers."""
    units = {**WORKLOAD_METRICS, **LAYER_METRICS}
    return {key: (layers[key], unit) for key, unit in units.items()}


def report_absent(layers: dict) -> None:
    if layers.get("absent"):
        print(f"absent layers: {', '.join(layers['absent'])}")
        print(f"metrics reading 0 because their layer is absent: {', '.join(layers['absent_metrics'])}")


class ServeClient:
    """One keep-alive HTTP connection to the service."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def post(self, body: bytes, stream: bool = False):
        """(status, headers, body or events, seconds to the first progress line)."""
        path = "/v1/query?stream=1" if stream else "/v1/query"
        sent = time.perf_counter()
        self.conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        if not stream or response.status != 200:
            return response.status, response.headers, response.read(), None
        events, first = [], None
        for line in iter(response.readline, b""):
            event = json.loads(line)
            if first is None and event.get("type") == "progress":
                first = time.perf_counter() - sent
            events.append(event)
        return response.status, response.headers, events, first

    def close(self) -> None:
        self.conn.close()


def start_server(command: list[str], store: Path, log: Path):
    """Launch a server; (process, port, seconds until /v1/healthz answered)."""
    started = time.perf_counter()
    args = ["--host", "127.0.0.1", "--port", "0", "--store", str(store), "--max-parallel", "1", "--quiet"]
    with open(log, "ab") as errors:
        proc = subprocess.Popen(command + args, stdout=subprocess.PIPE, stderr=errors, env=child_env(), cwd=ROOT)
    try:
        line = _read_line(proc, 60)
        if "listening on http://" not in line:
            raise RuntimeError(f"server did not start: {line!r} (see {log.name})")
        port = int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])
        while True:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
                conn.request("GET", "/v1/healthz")
                if conn.getresponse().status == 200:
                    conn.close()
                    break
            except OSError:
                if time.perf_counter() - started > 60 or proc.poll() is not None:
                    raise RuntimeError(f"server never became healthy (see {log.name})")
                time.sleep(0.002)
    except BaseException:
        _stop(proc, signal.SIGKILL)
        raise
    return proc, port, time.perf_counter() - started


def serve_session(command: list[str], args, run_dir: Path, label: str) -> dict:
    """One serve-mix measurement against a fresh server and store."""
    checker = Checker()
    hit_set = serve_hit_set(args.seed)
    # A traced run only needs the layer totals, so it runs the shortest loop.
    passes = MIN_PASSES if args.trace else max(MIN_PASSES, round(args.seconds * PASSES_PER_SECOND))
    ops = serve_cold_ops(args.seed, passes)
    schedule = serve_hit_schedule(args.seed, 20_000, len(hit_set))
    proc, port, _ = start_server(command, run_dir / f"store-{label}", run_dir / "server.log")
    attempted = failed = 0
    notes: list[str] = []
    try:
        # Prime (untimed): store every hit-set result, keep its bytes.
        primed = []
        client = ServeClient(port)
        for query in hit_set:
            status, headers, body, _ = client.post(json.dumps(query).encode())
            document = json.loads(body) if status == 200 else None
            problems = checker.problems(query, document, headers.get("X-Repro-Hash"))
            if headers.get("X-Repro-Cache") != "miss":
                problems.append(f"prime answered {headers.get('X-Repro-Cache')!r}, not a miss")
            attempted += 1
            if problems:
                failed += 1
                notes.append(f"prime {query['mode']}: {'; '.join(problems)}")
            primed.append(body)
        client.close()
        hit_bodies = [json.dumps(query).encode() for query in hit_set]

        cold_done = threading.Event()
        hits: list[float] = []
        late: list[float] = []
        cold: list[float] = []
        firsts: list[float] = []
        tallies = {"hit": [0, 0], "cold": [0, 0], "died": 0}
        wall = [0.0]

        def hit_loop(begin: float) -> None:
            client = ServeClient(port)
            try:
                for index, (offset, key) in enumerate(schedule):
                    due = begin + offset
                    pause = due - time.perf_counter()
                    if pause > 0:
                        time.sleep(pause)
                    if cold_done.is_set() and index >= MIN_HITS:
                        break
                    late.append(time.perf_counter() - due)
                    tallies["hit"][0] += 1
                    try:
                        status, headers, body, _ = client.post(hit_bodies[key])
                    except (OSError, http.client.HTTPException) as exc:
                        tallies["hit"][1] += 1
                        notes.append(f"hit {key}: {exc!r}")
                        client.close()
                        client = ServeClient(port)
                        continue
                    hits.append(time.perf_counter() - due)
                    if not (status == 200 and headers.get("X-Repro-Cache") == "hit" and body == primed[key]):
                        tallies["hit"][1] += 1
                        notes.append(
                            f"hit {key}: status {status}, {headers.get('X-Repro-Cache')!r}, "
                            f"identical to the stored bytes: {body == primed[key]}"
                        )
            finally:
                client.close()

        def cold_loop(begin: float) -> None:
            client = ServeClient(port)
            streamed: dict[str, dict] = {}
            try:
                for expected, query in ops:
                    body = json.dumps(query).encode()
                    tallies["cold"][0] += 1
                    sent = time.perf_counter()
                    try:
                        status, headers, payload, first = client.post(body, stream=expected == "stream")
                    except (OSError, http.client.HTTPException, ValueError) as exc:
                        tallies["cold"][1] += 1
                        notes.append(f"{expected} {query['mode']}: {exc!r}")
                        client.close()
                        client = ServeClient(port)
                        continue
                    took = time.perf_counter() - sent
                    problems: list[str] = []
                    digest = headers.get("X-Repro-Hash")
                    if status != 200:
                        problems.append(f"status {status}")
                    elif expected == "stream":
                        final = payload[-1] if payload else {}
                        document = final.get("document")
                        problems += checker.problems(query, document, digest)
                        if first is None or final.get("type") != "result":
                            problems.append("no progress line or no final result")
                        else:
                            firsts.append(first)
                        streamed[digest] = document
                    else:
                        try:
                            document = json.loads(payload)
                        except ValueError:
                            document = None
                        problems += checker.problems(query, document, digest)
                        tier = headers.get("X-Repro-Cache")
                        if expected == "verify":
                            if tier != "hit" or document != streamed.get(digest):
                                problems.append("streamed result differs from the stored document")
                        elif tier != expected:
                            problems.append(f"answered {tier!r}, expected {expected!r}")
                        else:
                            cold.append(took)
                    if problems:
                        tallies["cold"][1] += 1
                        notes.append(f"{expected} {query['mode']} {query['topologies']}: {'; '.join(problems)}")
            finally:
                wall[0] = time.perf_counter() - begin
                cold_done.set()
                client.close()

        def guarded(loop):
            def target(begin: float) -> None:
                try:
                    loop(begin)
                except BaseException as exc:  # a loop that dies fails the run
                    notes.append(f"{loop.__name__} stopped: {exc!r}")
                    tallies["died"] += 1

            return target

        begin = time.perf_counter() + 0.05
        threads = [threading.Thread(target=guarded(loop), args=(begin,)) for loop in (hit_loop, cold_loop)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        peak_kib = tree_peak_rss_kib(proc.pid)
    finally:
        _stop(proc)
    # Operations a dead loop never sent count as attempted and failed.
    unsent = len(ops) - tallies["cold"][0] + max(0, MIN_HITS - tallies["hit"][0])
    if unsent:
        notes.append(f"{unsent} operations never sent")
    attempted += tallies["hit"][0] + tallies["cold"][0] + unsent
    failed += tallies["hit"][1] + tallies["cold"][1] + unsent + tallies["died"]
    return {
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "wall_s": wall[0],
        "peak_rss_kib": peak_kib,
        "hits": hits,
        "late": late,
        "cold": cold,
        "firsts": firsts,
    }


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (p in (0, 1))."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def serve_figures(run: dict) -> tuple[dict, list[str]]:
    """The serve-mix latency figures of one run, and any that rest on too
    few samples (fewer than ten beyond the percentile)."""
    figures, short = {}, []
    for name, values, p in (
        ("hit_p50_ms", run["hits"], 0.5),
        ("hit_p95_ms", run["hits"], 0.95),
        ("cold_p50_ms", run["cold"], 0.5),
        ("stream_first_p50_ms", run["firsts"], 0.5),
    ):
        figures[name] = 1000 * percentile(values, p) if values else 0.0
        if len(values) < _min_samples(p):
            short.append(f"{name} rests on {len(values)} samples, fewer than ten beyond it")
    return figures, short


def serve_workload(args, run_dir: Path) -> dict:
    plain = [sys.executable, "-m", "repro", "serve"]
    metrics: dict = {}
    if not args.trace:
        _stop(start_server(plain, run_dir / "store-warm", run_dir / "server.log")[0])
        setups = []
        for index in range(SETUP_STARTS):
            proc, _, seconds = start_server(plain, run_dir / f"store-setup-{index}", run_dir / "server.log")
            _stop(proc)
            setups.append(seconds)
        metrics["setup_s"] = (statistics.median(setups), "s")
    run = serve_session(plain, args, run_dir, "plain")
    result = {key: run[key] for key in ("attempted", "failed", "notes")}
    figures, short = serve_figures(run)
    # Every percentile is part of the run's answer: one that rests on too few
    # samples fails the run rather than going unreported.
    result["failed"] += len(short)
    result["notes"] += short
    if args.trace:
        layers_path = run_dir / "layers.json"
        traced = serve_session(
            [sys.executable, str(HERE / "serve_traced.py"), str(layers_path)], args, run_dir, "traced"
        )
        for key in ("attempted", "failed", "notes"):
            result[key] += traced[key]
        report = json.loads(layers_path.read_text())
        layers = dict(report["metrics"])
        layers["trace.overhead_share"] = traced["wall_s"] / run["wall_s"] - 1
        handler = report["hit_handler_ms"]
        layers["http.gap_p50_ms"] = (
            1000 * statistics.median(traced["hits"]) - statistics.median(handler) if handler else 0.0
        )
        layers.update(figures, nodes_per_s=0.0)
        metrics = layer_metrics(layers)
        report_absent(report)
    else:
        metrics["wall_s"] = (run["wall_s"], "s")
        metrics["peak_rss_mib"] = (run["peak_rss_kib"] / 1024, "MiB")
        for name, value in figures.items():
            print(f"  {name} = {value:.6g} ms (a per-layer metric; --trace 1 reports it)")
        print(f"  samples: {len(run['hits'])} hits at {HIT_RATE:g}/s, {len(run['cold'])} cold, {len(run['firsts'])} streamed")
        if run["late"]:
            late = run["late"]
            print(
                f"  generator late p50 {1000 * statistics.median(late):.1f} ms, "
                f"p95 {1000 * percentile(late, 0.95):.1f} ms, max {1000 * max(late):.1f} ms"
            )
    result["metrics"] = metrics
    return result


WORKLOADS = ("query-cold", "scale-stream", "serve-mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Servers stop on SIGINT.  A shell that starts this in the background
    # ignores SIGINT, which its children would inherit; a handler is reset
    # to the default across exec, so they get a working SIGINT back.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing (run from a checkout's root)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checks read the program's own query digests
    run_dir = ROOT / ".perfbench-runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.workload == "query-cold":
            result = deck_workload(args.workload, query_cold_deck(args.seed), 0, args, run_dir)
        elif args.workload == "scale-stream":
            result = deck_workload(args.workload, scale_stream_deck(args.seed), 2, args, run_dir)
        else:
            result = serve_workload(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass
    for note in result["notes"]:
        print(f"check failed: {note}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
