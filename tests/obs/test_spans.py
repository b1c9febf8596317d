"""Span semantics: nesting, exception safety, the disabled fast path."""

from __future__ import annotations

import threading

import pytest

from repro.obs import current_span_id, remote_parent, span
from repro.obs import trace
from repro.obs.spans import _NOOP

from tests.obs.conftest import read_records


def _spans(path):
    return [r for r in read_records(path) if r["t"] == "span"]


def test_nesting_records_parent_ids(trace_file):
    with span("outer"):
        with span("inner"):
            pass
    trace.end_run()
    recs = {r["name"]: r for r in _spans(trace_file)}
    assert recs["inner"]["parent"] == recs["outer"]["id"]
    assert recs["outer"]["parent"] is None
    # Children close first, so they are written first.
    assert [r["name"] for r in _spans(trace_file)] == ["inner", "outer"]


def test_current_span_id_tracks_ambient_span(trace_file):
    assert current_span_id() is None
    with span("a") as sa:
        assert current_span_id() == sa.id
    assert current_span_id() is None


def test_exception_is_recorded_and_propagates(trace_file):
    with pytest.raises(ValueError, match="boom"):
        with span("failing"):
            raise ValueError("boom")
    trace.end_run()
    (rec,) = _spans(trace_file)
    assert rec["name"] == "failing"
    assert rec["ok"] is False
    assert rec["err"] == "ValueError: boom"
    # The ambient parent must be restored even after the exception.
    assert current_span_id() is None


def test_attrs_at_open_and_mid_span(trace_file):
    with span("s", dataset="AMG-64") as sp:
        sp.set(cached=True)
    trace.end_run()
    (rec,) = _spans(trace_file)
    assert rec["attrs"] == {"dataset": "AMG-64", "cached": True}
    assert rec["dur"] >= 0.0
    assert rec["pid"] > 0


def test_disabled_path_returns_shared_noop(clean_trace_state):
    s = span("anything", key="value")
    assert s is _NOOP
    # Reentrant and inert: no ambient span, no allocation per use.
    with s:
        with span("nested") as inner:
            assert inner is _NOOP
            assert inner.set(x=1) is inner
            assert current_span_id() is None


def test_remote_parent_adopts_foreign_id(trace_file):
    with remote_parent("beef.42"):
        with span("worker.task"):
            pass
    assert current_span_id() is None
    trace.end_run()
    (rec,) = _spans(trace_file)
    assert rec["parent"] == "beef.42"


def test_remote_parent_none_is_transparent(trace_file):
    with remote_parent(None):
        assert current_span_id() is None


def test_threads_do_not_inherit_ambient_parent(trace_file):
    """A fresh thread starts with no ambient span (contextvars default),
    so its spans become roots rather than nesting under whatever the
    main thread happened to be doing."""
    seen = {}

    def worker():
        seen["parent"] = current_span_id()

    with span("main.work"):
        t = threading.Thread(target=worker)
        t.start()
        t.join()
    assert seen["parent"] is None


def test_span_ids_embed_pid_and_are_unique(trace_file):
    import os

    with span("a"):
        pass
    with span("b"):
        pass
    trace.end_run()
    recs = _spans(trace_file)
    ids = [r["id"] for r in recs]
    assert len(set(ids)) == 2
    prefix = f"{os.getpid():x}."
    assert all(i.startswith(prefix) for i in ids)
