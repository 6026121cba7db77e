"""The benchmark's child process: a set-up probe, or one deck through ``Session.run``.

    python3 perfbench/child.py setup [POOL_WORKERS]
        import repro.api, build a Session (and warm a pool), print "ready".
    python3 perfbench/child.py deck DECK.json OUT.json [--trace]
        after set-up, run every query document of DECK.json in
        order through one Session, write timings, documents and (traced)
        layer metrics to OUT.json.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time


def setup(pool_workers: int) -> int:
    import repro.api  # noqa: F401  (the import is what is timed)
    from repro.api.session import Session

    Session()
    if pool_workers:
        from repro.engine.batch import BatchExecutor

        BatchExecutor(pool_workers).map(abs, [-1] * pool_workers)
    print("ready", flush=True)
    return 0


def _node_radius(document: dict) -> tuple[float, int]:
    """(Σ mean radius × n, Σ n) over the rows of a distribution/simulate result."""
    weighted = nodes = 0
    for row in document.get("rows", ()):
        average = row.get("average")
        if isinstance(average, dict):
            average = average.get("mean")
        if isinstance(average, (int, float)) and row.get("n"):
            weighted += average * row["n"]
            nodes += row["n"]
    return weighted, nodes


def deck(deck_path: str, out_path: str, traced: bool) -> int:
    from proctree import tree_peak_rss_kib

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from repro.api.query import Query
    from repro.api.session import Session

    session = Session()
    with open(deck_path, encoding="utf-8") as handle:
        documents = json.load(handle)
    entries = []
    radius_sum = radius_nodes = 0.0
    plan_layers: list[int] = []
    started = time.perf_counter()
    for document in documents:
        begun = time.perf_counter()
        try:
            result = session.run(Query.from_dict(document)).as_dict()
            error = None
        except Exception as exc:  # a failed query is reported, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        entries.append(
            {"seconds": time.perf_counter() - begun, "document": result, "error": error}
        )
        if tracer is not None:
            layers = tracer.take_plan_layers()
            if layers and result is not None and document["mode"] in ("distribution", "simulate"):
                weighted, nodes = _node_radius(result)
                radius_sum += weighted
                radius_nodes += nodes
                plan_layers.extend(layers)
    finished = time.perf_counter()
    output = {
        "wall_s": finished - started,
        "peak_rss_kib": tree_peak_rss_kib(os.getpid()),
        "entries": entries,
    }
    if tracer is not None:
        depth_ratio = 0.0
        if radius_nodes and plan_layers and sum(plan_layers):
            depth_ratio = (radius_sum / radius_nodes) / (sum(plan_layers) / len(plan_layers))
        roots = [(threading.get_ident(), started, finished)]
        output["layers"] = tracer.metrics(roots, depth_ratio)
        output["absent"] = tracer.absent
        output["absent_metrics"] = tracer.absent_metrics()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(output, handle)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        return setup(int(argv[1]) if len(argv) > 1 else 0)
    if argv[:1] == ["deck"] and len(argv) >= 3:
        return deck(argv[1], argv[2], "--trace" in argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
