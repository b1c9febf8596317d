"""Metrics registry: counters, in-place reset, snapshots."""

from __future__ import annotations

import threading

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


def test_get_or_create_returns_same_instrument():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")


def test_reset_zeroes_in_place_keeping_references():
    """Modules cache instruments at import time (features/store.py does);
    reset() must zero those same objects, not replace them."""
    reg = MetricsRegistry()
    c = reg.counter("c")
    c.inc(3)
    reg.reset()
    assert reg.counter("c") is c
    assert c.value == 0
    c.inc()
    assert reg.counter("c").value == 1


def test_snapshot_skips_zero_values():
    reg = MetricsRegistry()
    reg.counter("zero")
    reg.counter("nonzero").inc(2)
    snap = reg.snapshot()
    assert snap == {"nonzero": 2}


def test_global_registry_exists():
    c = METRICS.counter("tests.obs.metrics.probe")
    c.inc()
    assert METRICS.counter("tests.obs.metrics.probe").value >= 1
