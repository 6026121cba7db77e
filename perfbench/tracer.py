"""Outside-in layer tracing for the benchmark's traced runs.

The program under test carries no benchmark spans of its own, so this module
wraps each layer's public functions from outside: it imports the program's
modules, replaces every binding of a target function (module attributes,
names imported with ``from ... import`` into other modules, class
attributes) by a timing wrapper, and keeps one span per outermost call in
memory until the run ends.

Rules the wrappers follow:

* A function is wrapped at every name it is bound to.  ``center_plan`` is
  imported by name into ``repro.kernel.compile``, so wrapping only
  ``repro.engine.frontier.center_plan`` would miss every compile-time plan.
* A target that no longer exists (deleted or renamed by a later change) is
  reported as absent; its metrics read 0 and ``trace.absent_layers`` counts
  it.  Tracing never fails because of it.
* Nothing that is pickled into the worker pool is wrapped: the pool is timed
  on the parent side, at ``WorkerPool.map``.
* A call of a layer made inside another call of the same layer on the same
  thread (an adversary's ``maximise`` calling a member's ``maximise``) is
  not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import threading
import time

#: (layer, module, attribute path) of every wrapped public function.
TARGETS = (
    ("frontier.plan", "repro.engine.frontier", "center_plan"),
    ("frontier.run", "repro.engine.frontier", "FrontierRunner.run"),
    ("kernel.compile", "repro.kernel.compile", "compile_instance"),
    ("kernel.simulate", "repro.kernel.compile", "simulate_many"),
    ("topology.graph", "repro.engine.campaign", "build_topology"),
    ("topology.csr", "repro.topology.stream", "build_csr"),
    ("shard", "repro.kernel.shard", "ShardedKernelExecutor.sample_measures"),
    ("pool.map", "repro.engine.pool", "WorkerPool.map"),
    ("api.run", "repro.api.session", "Session.run"),
    ("service.execute", "repro.service.service", "QueryService.execute"),
    ("service.execute", "repro.service.service", "QueryService.execute_stream"),
    ("store.get", "repro.service.store", "ResultStore.get"),
    ("store.get", "repro.service.store", "ResultStore.get_state"),
    ("store.put", "repro.service.store", "ResultStore.put"),
    ("store.put", "repro.service.store", "ResultStore.put_state"),
    ("http.handler", "repro.service.http", "ServiceRequestHandler.do_POST"),
)

#: Modules whose classes may define an adversary ``maximise``.
SEARCH_MODULES = ("repro.core.adversary", "repro.search")

#: Layers that are roots, not children: their time does not cover a deck.
ROOT_LAYERS = ("api.run", "http.handler")

#: Every per-layer metric a traced run prints, with its unit.
LAYER_METRICS = {
    "frontier.plan.calls": "count",
    "frontier.plan.busy_s": "s",
    "frontier.plan.depth_ratio": "ratio",
    "kernel.compile.busy_s": "s",
    "kernel.simulate.busy_s": "s",
    "kernel.simulate.rows": "count",
    "frontier.run.busy_s": "s",
    "search.busy_s": "s",
    "topology.graph.busy_s": "s",
    "topology.csr.busy_s": "s",
    "topology.csr.builds_per_key": "ratio",
    "shard.busy_s": "s",
    "pool.map.calls": "count",
    "pool.map.tasks": "count",
    "pool.map.busy_s": "s",
    "api.run.self_s": "s",
    "api.session.cache_hit_ratio": "ratio",
    "service.execute.busy_s": "s",
    "service.lock_wait_s": "s",
    "store.get.busy_s": "s",
    "store.put.busy_s": "s",
    "store.hit_ratio": "ratio",
    "http.handler_p50_ms": "ms",
    "http.gap_p50_ms": "ms",
    "trace.uncovered_share": "ratio",
    "trace.overhead_share": "ratio",
    "trace.absent_layers": "count",
}

#: The layers behind each metric, for reporting absent targets.
_METRIC_LAYER = {name: name.rsplit(".", 1)[0] for name in LAYER_METRICS}
_METRIC_LAYER.update(
    {
        "service.lock_wait_s": "service.execute",
        "store.hit_ratio": "store.get",
        "http.handler_p50_ms": "http.handler",
        "http.gap_p50_ms": "http.handler",
        "api.session.cache_hit_ratio": "api.run",
    }
)


def _rebind(original, wrapper) -> int:
    """Replace every module-level binding of ``original`` by ``wrapper``."""
    bound = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)
                bound += 1
    return bound


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


class Tracer:
    """Installs the wrappers, keeps spans in memory, derives layer metrics."""

    def __init__(self) -> None:
        #: (layer, thread id, start, end) of every outermost layer call.
        self.spans: list[tuple[str, int, float, float]] = []
        self.absent: list[str] = []
        self.rows = 0
        self.pool_tasks = 0
        self.csr_keys: list[tuple] = []
        self.plan_layers: dict[int, int] = {}
        self.store_lookups = 0
        self.store_hits = 0
        self.lock_waits: list[float] = []
        #: (duration, cache tier) of every HTTP POST handled.
        self.handlers: list[tuple[float, str]] = []
        self.sessions: list = []
        self._local = threading.local()

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Import the program's layers and wrap every target found."""
        for module in ("repro.api", "repro.service", "repro.kernel.shard", "repro.search"):
            try:
                importlib.import_module(module)
            except ImportError:
                self.absent.append(module)
        for layer, module_name, path in TARGETS:
            self._wrap_target(layer, module_name, path)
        self._wrap_search()
        self._wrap_sessions()

    def _lookup(self, module_name: str, path: str):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None, None
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        return owner, parts[-1]

    def _wrap_target(self, layer: str, module_name: str, path: str) -> None:
        owner, name = self._lookup(module_name, path)
        raw = vars(owner).get(name) if owner is not None else None
        if raw is None:
            self.absent.append(f"{layer} ({module_name}.{path})")
            return
        after = getattr(self, "_after_" + layer.replace(".", "_"), None)
        if inspect.isclass(owner):
            if inspect.isgeneratorfunction(raw):
                setattr(owner, name, self._timed_generator(layer, raw))
            else:
                setattr(owner, name, self._timed(layer, raw, after))
        else:
            _rebind(raw, self._timed(layer, raw, after))

    def _wrap_search(self) -> None:
        """Wrap ``maximise`` on every adversary class that defines one."""
        wrapped = 0
        for name, module in list(sys.modules.items()):
            if module is None or not any(
                name == root or name.startswith(root + ".") for root in SEARCH_MODULES
            ):
                continue
            for cls in list(vars(module).values()):
                if (
                    inspect.isclass(cls)
                    and cls.__module__ == name
                    and inspect.isfunction(vars(cls).get("maximise"))
                ):
                    cls.maximise = self._timed("search", vars(cls)["maximise"])
                    wrapped += 1
        if not wrapped:
            self.absent.append("search (maximise)")

    def _wrap_sessions(self) -> None:
        """Record every Session created, for its cache counters."""
        owner, _ = self._lookup("repro.api.session", "Session.__init__")
        if owner is None or not hasattr(owner, "cache_info"):
            self.absent.append("api.session (Session.cache_info)")
            return
        init = owner.__init__
        sessions = self.sessions

        @functools.wraps(init)
        def register(session, *args, **kwargs):
            init(session, *args, **kwargs)
            sessions.append(session)

        owner.__init__ = register

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _enter(self, layer: str) -> bool:
        active = self._local.__dict__.setdefault("active", set())
        if layer in active:
            return False
        active.add(layer)
        return True

    def _exit(self, layer: str) -> None:
        self._local.active.discard(layer)

    def _timed(self, layer: str, function, after=None):
        tracer = self
        spans = self.spans
        marks_entry = layer == "service.execute"

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer._enter(layer):
                return function(*args, **kwargs)
            start = time.perf_counter()
            if marks_entry:
                tracer._local.entered = start
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._exit(layer)
                if marks_entry:
                    tracer._local.__dict__.pop("entered", None)
                spans.append((layer, threading.get_ident(), start, end))
            if after is not None:
                after(args, kwargs, result, start, end)
            return result

        return wrapper

    def _timed_generator(self, layer: str, function):
        """Time a generator from its first step until it is exhausted."""
        tracer = self
        spans = self.spans

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer._enter(layer):
                yield from function(*args, **kwargs)
                return
            start = time.perf_counter()
            tracer._local.entered = start
            try:
                yield from function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._exit(layer)
                tracer._local.__dict__.pop("entered", None)
                spans.append((layer, threading.get_ident(), start, end))

        return wrapper

    # ------------------------------------------------------------------
    # per-layer side counters (called after a successful outermost call)
    # ------------------------------------------------------------------
    def _after_frontier_plan(self, args, kwargs, plan, start, end) -> None:
        counts = getattr(plan, "member_counts", None)
        if counts is not None:
            self.plan_layers.setdefault(id(plan), len(counts) - 1)

    def _after_kernel_simulate(self, args, kwargs, result, start, end) -> None:
        self.rows += sum(len(block) for block in result)

    def _after_topology_csr(self, args, kwargs, csr, start, end) -> None:
        self.csr_keys.append(getattr(csr, "spec", None) or (args, tuple(sorted(kwargs.items()))))

    def _after_pool_map(self, args, kwargs, result, start, end) -> None:
        self.pool_tasks += len(result)

    def _after_service_execute(self, args, kwargs, outcome, start, end) -> None:
        self._local.tier = getattr(outcome, "tier", "")

    def _after_store_get(self, args, kwargs, result, start, end) -> None:
        found = result[0] if isinstance(result, tuple) else result
        self.store_lookups += 1
        self.store_hits += found is not None
        entered = self._local.__dict__.pop("entered", None)
        if entered is not None:
            self.lock_waits.append(start - entered)

    def _after_http_handler(self, args, kwargs, result, start, end) -> None:
        self.handlers.append((end - start, self._local.__dict__.pop("tier", "")))

    def take_plan_layers(self) -> list[int]:
        """Layer counts of the plans built since the previous call."""
        layers = list(self.plan_layers.values())
        self.plan_layers.clear()
        return layers

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def busy(self, layer: str) -> float:
        return sum(end - start for name, _, start, end in self.spans if name == layer)

    def calls(self, layer: str) -> int:
        return sum(1 for name, *_ in self.spans if name == layer)

    def uncovered(self, roots) -> tuple[float, float]:
        """(total, uncovered) seconds of ``roots`` ``(thread, start, end)``.

        Uncovered time lies inside a root but outside every child layer's
        span on the same thread; the root layers themselves cover nothing.
        """
        by_thread: dict[int, list[tuple[float, float]]] = {}
        for name, thread, start, end in self.spans:
            if name not in ROOT_LAYERS:
                by_thread.setdefault(thread, []).append((start, end))
        total = uncovered = 0.0
        for thread, lo, hi in roots:
            # Spans of one thread nest like its calls: a child lies inside.
            inside = [(s, e) for s, e in by_thread.get(thread, ()) if s >= lo and e <= hi]
            total += hi - lo
            uncovered += (hi - lo) - _union_length(inside, lo, hi)
        return total, uncovered

    def api_self_s(self) -> float:
        roots = [(t, s, e) for name, t, s, e in self.spans if name == "api.run"]
        return self.uncovered(roots)[1]

    def metrics(self, roots, depth_ratio: float = 0.0) -> dict:
        """Every layer metric this process can measure, as plain numbers."""
        hits = misses = 0
        for session in self.sessions:
            info = session.cache_info()
            hits += info.get("hits", 0)
            misses += info.get("misses", 0)
        keys = len(set(self.csr_keys))
        total, uncovered = self.uncovered(roots)
        hit_handlers = [d for d, tier in self.handlers if tier in ("l1", "l2")]
        values = {
            "frontier.plan.calls": self.calls("frontier.plan"),
            "frontier.plan.busy_s": self.busy("frontier.plan"),
            "frontier.plan.depth_ratio": depth_ratio,
            "kernel.compile.busy_s": self.busy("kernel.compile"),
            "kernel.simulate.busy_s": self.busy("kernel.simulate"),
            "kernel.simulate.rows": self.rows,
            "frontier.run.busy_s": self.busy("frontier.run"),
            "search.busy_s": self.busy("search"),
            "topology.graph.busy_s": self.busy("topology.graph"),
            "topology.csr.busy_s": self.busy("topology.csr"),
            "topology.csr.builds_per_key": len(self.csr_keys) / keys if keys else 0.0,
            "shard.busy_s": self.busy("shard"),
            "pool.map.calls": self.calls("pool.map"),
            "pool.map.tasks": self.pool_tasks,
            "pool.map.busy_s": self.busy("pool.map"),
            "api.run.self_s": self.api_self_s(),
            "api.session.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "service.execute.busy_s": self.busy("service.execute"),
            "service.lock_wait_s": sum(self.lock_waits),
            "store.get.busy_s": self.busy("store.get"),
            "store.put.busy_s": self.busy("store.put"),
            "store.hit_ratio": self.store_hits / self.store_lookups if self.store_lookups else 0.0,
            "http.handler_p50_ms": 1000 * statistics.median(hit_handlers) if hit_handlers else 0.0,
            "trace.uncovered_share": uncovered / total if total else 0.0,
            "trace.absent_layers": len(self.absent),
        }
        return values

    def absent_metrics(self) -> list[str]:
        """Metric names whose layer has an absent target."""
        layers = {entry.split(" ", 1)[0] for entry in self.absent}
        return [name for name, layer in _METRIC_LAYER.items() if layer in layers]

    def dump(self, path: str, roots, depth_ratio: float = 0.0) -> None:
        """Write the layer metrics (and the absent targets) as JSON."""
        document = {
            "metrics": self.metrics(roots, depth_ratio),
            "absent": self.absent,
            "absent_metrics": self.absent_metrics(),
            "hit_handler_ms": [1000 * d for d, tier in self.handlers if tier in ("l1", "l2")],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
