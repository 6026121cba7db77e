"""The process-wide metrics registry: counters, gauges and timers.

Before this module the library's operational counters were scattered —
:class:`~repro.engine.cache.CacheStats` hit/miss pairs, the session's
:class:`~repro.api.session._LruCache` counters, the kernel's
:class:`~repro.kernel.compile.KernelStats`, the exact search's enumeration
counters — each with its own read-out.  Those cheap local counters stay (they
are load-bearing inside the hot loops); what this registry adds is one
**publication surface**: at each subsystem's existing bulk flush point the
local counts are pushed into named process-wide metrics, so a single
:func:`snapshot` answers "what did this process do" across every layer.

Naming follows the span convention (``layer.metric``, see
``docs/observability.md`` for the catalog): ``engine.decide_hits``,
``kernel.rows``, ``search.pruned_by_symmetry``, ``api.queries``, ...

The module-level helpers :func:`add`, :func:`set_gauge` and
:func:`observe` are gated on the same ``REPRO_OBS`` switch as the spans
(:func:`repro.obs.spans.obs_enabled`): while instrumentation is disabled
they return after one module-global check and allocate nothing.  Direct
:func:`registry` access is never gated — tests and tools that want to
count regardless of the switch may.
"""

from __future__ import annotations

from typing import Optional

from repro.obs import spans as _spans


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, delta: int = 1) -> None:
        """Add ``delta`` (default 1) to the counter."""
        self.value += delta


class Gauge:
    """A point-in-time value metric (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value) -> None:
        """Record the current value."""
        self.value = value


class Timer:
    """An accumulating duration metric (observation count + total seconds)."""

    __slots__ = ("count", "total_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0

    def observe(self, seconds: float) -> None:
        """Record one observed duration."""
        self.count += 1
        self.total_s += seconds


class MetricsRegistry:
    """A named collection of counters, gauges and timers.

    Instruments are created on first access and live for the registry's
    lifetime; :meth:`snapshot` renders everything JSON-friendly and
    :meth:`reset` drops all instruments (tests, per-run isolation).
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._timers: dict[str, Timer] = {}

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first access)."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first access)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def timer(self, name: str) -> Timer:
        """The timer named ``name`` (created on first access)."""
        instrument = self._timers.get(name)
        if instrument is None:
            instrument = self._timers[name] = Timer()
        return instrument

    def snapshot(self) -> dict:
        """JSON-friendly state of every instrument, sorted by name."""
        return {
            "counters": {
                name: self._counters[name].value for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "timers": {
                name: {
                    "count": self._timers[name].count,
                    "total_s": self._timers[name].total_s,
                }
                for name in sorted(self._timers)
            },
        }

    def reset(self) -> None:
        """Drop every instrument (counts restart from zero)."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()


#: The process-wide registry behind the module-level helpers.
_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry` (never gated)."""
    return _registry


def add(name: str, delta: int = 1) -> None:
    """Increment counter ``name`` by ``delta`` — no-op while obs is off.

    >>> from repro.obs import metrics, spans
    >>> spans.enable(); metrics.reset_metrics()
    >>> metrics.add("kernel.rows", 256)
    >>> metrics.metrics_snapshot()["counters"]["kernel.rows"]
    256
    >>> spans.disable(); metrics.add("kernel.rows", 256)
    >>> metrics.metrics_snapshot()["counters"]["kernel.rows"]
    256
    """
    if _spans.obs_enabled():
        _registry.counter(name).inc(delta)


def set_gauge(name: str, value) -> None:
    """Set gauge ``name`` to ``value`` — no-op while obs is off."""
    if _spans.obs_enabled():
        _registry.gauge(name).set(value)


def observe(name: str, seconds: float) -> None:
    """Record a duration on timer ``name`` — no-op while obs is off."""
    if _spans.obs_enabled():
        _registry.timer(name).observe(seconds)


def metrics_snapshot() -> dict:
    """JSON-friendly snapshot of the process-wide registry."""
    return _registry.snapshot()


def reset_metrics() -> None:
    """Reset the process-wide registry (counts restart from zero)."""
    _registry.reset()
