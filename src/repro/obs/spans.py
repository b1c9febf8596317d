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

With tracing disabled the whole path is one module-global check plus a
shared no-op context manager — nothing is allocated (the time budgets in
``tests/test_examples.py`` hold this to the noise floor).
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar

from repro.obs import trace

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


class Span:
    """One live span; records itself on exit (including on exceptions)."""

    __slots__ = (
        "name", "attrs", "id", "parent", "prof", "_t0", "_wall", "_token",
    )

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.id = _next_id()
        self.parent: str | None = None
        #: Resource-delta dict attached by :mod:`repro.obs.profile`;
        #: rides out-of-band in the trace record, never in results.
        self.prof: dict | None = None
        self._t0 = 0.0
        self._wall = 0.0
        self._token = None

    def set(self, **attrs) -> "Span":
        """Attach attributes discovered mid-span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
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
        }
        if self.attrs:
            rec["attrs"] = self.attrs
        if self.prof is not None:
            rec["prof"] = self.prof
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
