"""Process-wide metrics registry: counters and histograms.

One registry (:data:`METRICS`) serves the whole process.  Instruments are
created on first use and *persist across resets* — ``reset()`` zeroes
values in place, so modules may cache instrument references at import
time (the feature store does) and tests can still start from a clean
slate.

Values are plain Python numbers guarded by a per-instrument lock, so
concurrent threads can increment safely; worker *processes* have their
own registries (their final values travel through the trace sink, see
:mod:`repro.obs.trace`).
"""

from __future__ import annotations

import math
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


class Histogram:
    """Streaming summary of observed values: count/sum/min/max/mean."""

    __slots__ = ("name", "_lock", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, v: float) -> None:
        v = float(v)
        with self._lock:
            self.count += 1
            self.total += v
            if v < self.min:
                self.min = v
            if v > self.max:
                self.max = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _reset(self) -> None:
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.min = math.inf
            self.max = -math.inf

    def _snapshot(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Named instruments, created on first use, reset in place."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Histogram] = {}

    def _get(self, name: str, cls):
        inst = self._instruments.get(name)
        if inst is None:
            with self._lock:
                inst = self._instruments.setdefault(name, cls(name))
        if not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} is a {type(inst).__name__}, "
                f"requested as {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def reset(self) -> None:
        """Zero every instrument in place (references stay valid)."""
        with self._lock:
            for inst in self._instruments.values():
                inst._reset()

    def snapshot(self) -> dict[str, object]:
        """JSON-serialisable view of every non-trivial instrument value."""
        with self._lock:
            items = list(self._instruments.items())
        out: dict[str, object] = {}
        for name, inst in items:
            v = inst._snapshot()
            if v == 0 or (isinstance(v, dict) and not v.get("count")):
                continue  # uninteresting zeros keep traces compact
            out[name] = v
        return out


#: The process-wide registry.  Worker processes get their own copy; its
#: final values are flushed into the trace file tagged with their pid.
METRICS = MetricsRegistry()
