"""Unified metrics: named counters, gauges, histograms, cache sources.

One process-wide :class:`MetricsRegistry` replaces the divergent
stats dicts that grew organically (``Workspace.CacheStats``,
``corner_memo_stats()``).  The pre-existing stores keep their own
counters — they are the source of truth — and register *sources*:
zero-argument callables the registry polls at snapshot time, so a
snapshot always reflects live state without double-counting.

Metric kinds:

* **counter** — monotonically increasing count (``inc``);
* **gauge** — last-set value (``set_gauge``), e.g. queue depth;
* **histogram** — streaming count/sum/min/max summary (``observe``),
  e.g. job latency.  Full bucketed histograms are overkill for the
  job service's volume; min/max/mean answer the tuning questions.

Everything is stdlib, lock-guarded, and always-on: unlike spans, the
metric stores are a handful of dict updates per *request* (not per
gate), so there is no disabled fast path to maintain.
"""

from __future__ import annotations

import threading
from typing import Any, Callable


class MetricsRegistry:
    """Thread-safe registry of counters, gauges, histograms, sources."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._hists: dict[str, dict[str, float]] = {}
        self._sources: dict[str, Callable[[], dict]] = {}

    # -- writers --------------------------------------------------

    def inc(self, name: str, amount: int = 1):
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float):
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float):
        with self._lock:
            hist = self._hists.get(name)
            if hist is None:
                self._hists[name] = {"count": 1, "sum": value,
                                     "min": value, "max": value}
            else:
                hist["count"] += 1
                hist["sum"] += value
                hist["min"] = min(hist["min"], value)
                hist["max"] = max(hist["max"], value)

    def register_source(self, name: str, fn: Callable[[], dict]):
        """Register (or replace) a named cache-stats source.

        ``fn`` is polled at snapshot time and must return a plain dict
        of counters for that cache (hits/misses/...).  Replacement is
        silent: a fresh ``Workspace`` re-registering "workspace" is
        the normal service-restart path, not an error.
        """
        with self._lock:
            self._sources[name] = fn

    def unregister_source(self, name: str):
        with self._lock:
            self._sources.pop(name, None)

    # -- readers --------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str, default: float = 0.0) -> float:
        with self._lock:
            return self._gauges.get(name, default)

    def snapshot(self) -> dict[str, Any]:
        """A point-in-time copy: metrics plus polled cache sources."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            hists = {name: dict(h) for name, h in self._hists.items()}
            sources = dict(self._sources)
        caches: dict[str, dict] = {}
        for name, fn in sorted(sources.items()):
            try:
                caches[name] = dict(fn())
            except Exception:  # a dead source must not kill /v1/metrics
                caches[name] = {"error": 1}
        return {"counters": counters, "gauges": gauges,
                "histograms": hists, "caches": caches}

    def reset(self):
        """Clear all metrics and sources (tests)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()
            self._sources.clear()


#: The process-wide registry every repro layer writes to.
REGISTRY = MetricsRegistry()


def _corner_memo_source() -> dict:
    from repro.variation.corners import corner_memo_stats

    return corner_memo_stats()


def install_builtin_sources(registry: MetricsRegistry | None = None):
    """Attach the library-wide cache source (the corner memo).

    Idempotent; called lazily by the consumers that serve snapshots
    (the job service, the CLI) rather than at import, so ``repro.obs``
    stays import-light.
    """
    reg = registry if registry is not None else REGISTRY
    reg.register_source("corner_memo", _corner_memo_source)
