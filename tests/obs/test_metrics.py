"""Metrics registry: counters, gauges, histograms, cache sources."""

import pytest

from repro.api import schemas
from repro.obs import (
    MetricsRegistry,
    MetricsSnapshot,
    install_builtin_sources,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


def test_counters_accumulate(registry):
    registry.inc("jobs")
    registry.inc("jobs", 2)
    assert registry.counter("jobs") == 3
    assert registry.counter("never") == 0


def test_gauges_keep_last_value(registry):
    registry.set_gauge("queue_depth", 4)
    registry.set_gauge("queue_depth", 1)
    assert registry.gauge("queue_depth") == 1
    assert registry.gauge("missing", default=-1.0) == -1.0


def test_histogram_summarizes(registry):
    for value in (0.5, 2.0, 1.0):
        registry.observe("latency_s", value)
    hist = registry.snapshot()["histograms"]["latency_s"]
    assert hist == {"count": 3, "sum": 3.5, "min": 0.5, "max": 2.0}


def test_snapshot_polls_sources_live(registry):
    counts = {"hits": 0}
    registry.register_source("cache", lambda: counts)
    assert registry.snapshot()["caches"]["cache"] == {"hits": 0}
    counts["hits"] = 7
    assert registry.snapshot()["caches"]["cache"] == {"hits": 7}


def test_dead_source_reports_error_not_crash(registry):
    def boom():
        raise RuntimeError("gone")

    registry.register_source("dead", boom)
    assert registry.snapshot()["caches"]["dead"] == {"error": 1}


def test_register_source_replaces_silently(registry):
    registry.register_source("ws", lambda: {"old": 1})
    registry.register_source("ws", lambda: {"new": 1})
    assert registry.snapshot()["caches"]["ws"] == {"new": 1}
    registry.unregister_source("ws")
    registry.unregister_source("ws")  # idempotent
    assert registry.snapshot()["caches"] == {}


def test_builtin_sources_cover_the_library_caches(registry):
    install_builtin_sources(registry)
    caches = registry.snapshot()["caches"]
    assert set(caches) == {"corner_memo"}
    assert "hits" in caches["corner_memo"]


def test_snapshot_is_a_copy(registry):
    registry.inc("n")
    snap = registry.snapshot()
    snap["counters"]["n"] = 99
    assert registry.counter("n") == 1


def test_metrics_snapshot_schema_round_trip(registry):
    registry.inc("service.jobs.analyze")
    registry.set_gauge("service.queue_depth", 0)
    registry.observe("service.job_latency_s", 0.25)
    registry.register_source("workspace",
                             lambda: {"flow": {"hits": 1, "misses": 2,
                                               "hit_rate": 1 / 3}})
    snapshot = MetricsSnapshot.from_registry(registry)
    payload = schemas.check_round_trip(snapshot)
    assert payload[schemas.SCHEMA_KEY] == "metrics_snapshot"
    decoded = schemas.from_dict(payload)
    assert decoded == snapshot
    assert decoded.caches["workspace"]["flow"]["hits"] == 1


def test_reset_clears_everything(registry):
    registry.inc("a")
    registry.set_gauge("b", 1)
    registry.observe("c", 1.0)
    registry.register_source("d", dict)
    registry.reset()
    assert registry.snapshot() == {"counters": {}, "gauges": {},
                                   "histograms": {}, "caches": {}}
