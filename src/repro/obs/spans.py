"""Hierarchical timing spans over ``time.perf_counter``.

Usage — a context manager; ``set`` adds attributes known only later::

    with span("campaign.run", fingerprint=fp) as sp:
        ...
        sp.set(cached=True)

Nesting is tracked with a :mod:`contextvars` variable, so threads (and
async tasks) each see their own ambient parent.  Span ids embed the pid
(``"<pid:x>.<n>"``), which keeps ids unique across the campaign's worker
processes; :func:`remote_parent` re-roots a worker's spans under the
submitting span so cross-process trees assemble correctly.

Every recorded span carries its resource sample as a ``prof`` field:
the process's CPU user/sys and GC-collection deltas over the span, the
deltas of the cache counters that moved, and ``maxrss_kb`` — no delta,
but the process's ``ru_maxrss`` high-water at span exit:

.. code-block:: json

    {"t": "span", "name": "graph.stage", "dur": 1.83,
     "prof": {"cpu_user": 1.74, "cpu_sys": 0.06, "maxrss_kb": 412304,
              "gc_collections": 3, "cache": {"features.cache.misses": 2}}}

The sample reads clocks and OS counters only and travels out-of-band in
the trace sink, never into results.  With tracing disabled the whole
path is one module-global check plus a shared no-op context manager —
nothing is sampled or allocated (the time budgets in
``tests/test_examples.py`` hold this to the noise floor).
"""

from __future__ import annotations

import gc
import itertools
import os
import sys
import time
from contextlib import contextmanager
from contextvars import ContextVar

from repro.obs import trace
from repro.obs.metrics import METRICS

try:  # pragma: no cover - always present on the POSIX platforms we run on
    import resource
except ImportError:  # pragma: no cover - windows
    resource = None  # type: ignore[assignment]

#: Ambient current-span id (a string, so remote ids re-root cleanly).
_CURRENT: ContextVar[str | None] = ContextVar("repro_obs_span", default=None)

_IDS = itertools.count(1)


def _next_id() -> str:
    return f"{os.getpid():x}.{next(_IDS)}"


def current_span_id() -> str | None:
    """The ambient span id (pass through task boundaries to keep trees)."""
    return _CURRENT.get()


@contextmanager
def remote_parent(parent_id: str | None):
    """Adopt a span id from another process as the ambient parent."""
    if parent_id is None:
        yield
        return
    token = _CURRENT.set(parent_id)
    try:
        yield
    finally:
        _CURRENT.reset(token)


#: Cache counters sampled around every span — the delta says which
#: caches a stage leaned on (or missed) without touching its outputs.
_CACHE_COUNTER_NAMES = (
    "features.cache.hits",
    "features.cache.misses",
    "campaign.cache.hits",
    "campaign.cache.misses",
    "graph.stage.hit",
    "graph.stage.miss",
)

_cache_insts = None


def _cache_counters():
    global _cache_insts
    if _cache_insts is None:
        _cache_insts = tuple(METRICS.counter(n) for n in _CACHE_COUNTER_NAMES)
    return _cache_insts


def _maxrss_kb() -> int:
    if resource is None:  # pragma: no cover - windows
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    return rss // 1024 if sys.platform == "darwin" else rss


def _sample() -> tuple:
    t = os.times()
    return (
        t.user,
        t.system,
        _maxrss_kb(),
        sum(s["collections"] for s in gc.get_stats()),
        tuple(c.value for c in _cache_counters()),
    )


def _delta(before: tuple) -> dict:
    after = _sample()
    prof = {
        "cpu_user": round(after[0] - before[0], 6),
        "cpu_sys": round(after[1] - before[1], 6),
        "maxrss_kb": int(after[2]),
        "gc_collections": after[3] - before[3],
    }
    cache = {
        name: a - b
        for name, a, b in zip(_CACHE_COUNTER_NAMES, after[4], before[4])
        if a != b
    }
    if cache:
        prof["cache"] = cache
    return prof


class Span:
    """One live span; records itself on exit (including on exceptions)."""

    __slots__ = (
        "name", "attrs", "id", "parent", "_before", "_t0", "_wall", "_token",
    )

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.id = _next_id()
        self.parent: str | None = None
        self._before: tuple = ()
        self._t0 = 0.0
        self._wall = 0.0
        self._token = None

    def set(self, **attrs) -> "Span":
        """Attach attributes discovered mid-span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._before = _sample()
        self.parent = _CURRENT.get()
        self._token = _CURRENT.set(self.id)
        self._wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.perf_counter() - self._t0
        _CURRENT.reset(self._token)
        rec = {
            "t": "span",
            "name": self.name,
            "id": self.id,
            "parent": self.parent,
            "pid": os.getpid(),
            "ts": self._wall,
            "dur": dur,
            "ok": exc_type is None,
            "prof": _delta(self._before),
        }
        if self.attrs:
            rec["attrs"] = self.attrs
        if exc_type is not None:
            rec["err"] = f"{exc_type.__name__}: {exc}"
        trace.write_record(rec)
        return False  # never swallow exceptions


class _NoopSpan:
    """Shared, reentrant do-nothing span for the disabled path."""

    __slots__ = ()

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP = _NoopSpan()


def span(name: str, **attrs) -> "Span | _NoopSpan":
    """A timing span context manager around a region.

    Returns the shared no-op instance when tracing is off — the fast
    path is a single module-attribute check.
    """
    if not trace.ACTIVE:
        return _NOOP
    if not trace.active() and trace.ensure_run() is None:
        return _NOOP
    return Span(name, attrs)
