"""Metrics registry: instruments, in-place reset, snapshots."""

from __future__ import annotations

import threading

import pytest

from repro.obs import METRICS, MetricsRegistry


def test_counter_increments():
    reg = MetricsRegistry()
    c = reg.counter("c")
    assert c.value == 0
    c.inc()
    c.inc(4)
    assert c.value == 5


def test_counter_thread_safety():
    reg = MetricsRegistry()
    c = reg.counter("c")

    def worker():
        for _ in range(1000):
            c.inc()

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.value == 8000


def test_histogram_summary():
    reg = MetricsRegistry()
    h = reg.histogram("h")
    for v in (1.0, 3.0, 2.0):
        h.observe(v)
    assert h.count == 3
    assert h.total == 6.0
    assert h.min == 1.0
    assert h.max == 3.0
    assert h.mean == 2.0
    snap = h._snapshot()
    assert snap == {"count": 3, "total": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0}


def test_get_or_create_returns_same_instrument():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")


def test_type_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.histogram("x")


def test_reset_zeroes_in_place_keeping_references():
    """Modules cache instruments at import time (features/store.py does);
    reset() must zero those same objects, not replace them."""
    reg = MetricsRegistry()
    c = reg.counter("c")
    h = reg.histogram("h")
    c.inc(3)
    h.observe(1.0)
    reg.reset()
    assert reg.counter("c") is c
    assert reg.histogram("h") is h
    assert c.value == 0
    assert h.count == 0
    c.inc()
    assert reg.counter("c").value == 1


def test_snapshot_skips_zero_values():
    reg = MetricsRegistry()
    reg.counter("zero")
    reg.counter("nonzero").inc(2)
    reg.histogram("empty")
    reg.histogram("full").observe(1.5)
    snap = reg.snapshot()
    assert "zero" not in snap
    assert "empty" not in snap
    assert snap["nonzero"] == 2
    assert snap["full"]["count"] == 1


def test_global_registry_exists():
    c = METRICS.counter("tests.obs.metrics.probe")
    c.inc()
    assert METRICS.counter("tests.obs.metrics.probe").value >= 1
