"""Process-wide metrics registry: named counters.

One registry (:data:`METRICS`) serves the whole process.  Counters are
created on first use and *persist across resets* — ``reset()`` zeroes
values in place, so modules may cache counter references at import
time (the feature store does) and tests can still start from a clean
slate.

Values are plain Python ints guarded by a per-counter lock, so
concurrent threads can increment safely; worker *processes* have their
own registries (their final values travel through the trace sink, see
:mod:`repro.obs.trace`).
"""

from __future__ import annotations

import threading


class Counter:
    """A monotonically increasing count (resettable to zero)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0

    def _snapshot(self) -> int:
        return self._value


class MetricsRegistry:
    """Named counters, created on first use, reset in place."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        inst = self._instruments.get(name)
        if inst is None:
            with self._lock:
                inst = self._instruments.setdefault(name, Counter(name))
        return inst

    def reset(self) -> None:
        """Zero every counter in place (references stay valid)."""
        with self._lock:
            for inst in self._instruments.values():
                inst._reset()

    def snapshot(self) -> dict[str, int]:
        """JSON-serialisable view of every non-zero counter value."""
        with self._lock:
            items = list(self._instruments.items())
        # Skipping uninteresting zeros keeps traces compact.
        return {name: v for name, inst in items if (v := inst._snapshot())}


#: The process-wide registry.  Worker processes get their own copy; its
#: final values are flushed into the trace file tagged with their pid.
METRICS = MetricsRegistry()
