"""Trace sink: manifests, enablement, worker attach, schema round-trip."""

from __future__ import annotations

import os

import pytest

from repro.obs import METRICS, annotate, event, span
from repro.obs import trace
from repro.obs.report import load_trace

from tests.obs.conftest import read_records


def test_manifest_is_first_record(trace_file, monkeypatch):
    trace.end_run()
    recs = read_records(trace_file)
    man = recs[0]
    assert man["t"] == "manifest"
    assert man["pid"] == os.getpid()
    assert isinstance(man["argv"], list)
    assert "python" in man["versions"]
    assert man["run_id"].endswith("-test")


def test_manifest_captures_repro_env_except_trace_file(
    tmp_path, clean_trace_state, monkeypatch
):
    monkeypatch.setenv("REPRO_FAST", "1")
    path = tmp_path / "t.jsonl"
    trace.start_run("test", path=path)
    trace.end_run()
    man = read_records(path)[0]
    assert man["env"]["REPRO_FAST"] == "1"
    assert all(k.startswith("REPRO_") for k in man["env"])
    assert trace.TRACE_FILE_ENV not in man["env"]


def test_start_run_is_idempotent_and_exports_path(trace_file):
    assert os.environ[trace.TRACE_FILE_ENV] == str(trace_file)
    assert trace.start_run("other") == trace_file
    trace.end_run()
    assert trace.TRACE_FILE_ENV not in os.environ
    assert not trace.active()


def test_ensure_run_off_by_default(clean_trace_state):
    assert trace.ensure_run() is None
    assert not trace.ACTIVE


def test_ensure_run_honours_repro_trace(tmp_path, clean_trace_state, monkeypatch):
    monkeypatch.setenv(trace.TRACE_ENV, "1")
    monkeypatch.setenv(trace.TRACE_DIR_ENV, str(tmp_path))
    trace._refresh_gate()
    path = trace.ensure_run("smoke")
    assert path is not None
    assert path.parent == tmp_path
    with span("gated"):
        pass
    trace.end_run()
    names = [r.get("name") for r in read_records(path)]
    assert "gated" in names


def test_first_span_starts_the_run(tmp_path, clean_trace_state, monkeypatch):
    """REPRO_TRACE=1 alone is enough: the first span opens the sink."""
    monkeypatch.setenv(trace.TRACE_ENV, "1")
    monkeypatch.setenv(trace.TRACE_DIR_ENV, str(tmp_path))
    trace._refresh_gate()
    with span("auto"):
        pass
    path = trace.current_trace_path()
    assert path is not None
    trace.end_run()
    assert "auto" in [r.get("name") for r in read_records(path)]


def test_worker_attaches_to_parent_file(tmp_path, clean_trace_state, monkeypatch):
    parent = tmp_path / "parent.jsonl"
    parent.write_text('{"t":"manifest","run_id":"x"}\n', encoding="utf-8")
    monkeypatch.setenv(trace.TRACE_FILE_ENV, str(parent))
    trace._refresh_gate()
    assert trace.ensure_run() == parent
    with span("worker.side"):
        pass
    trace.end_run()
    # The worker appended; the env var survives for sibling workers.
    assert os.environ[trace.TRACE_FILE_ENV] == str(parent)
    recs = read_records(parent)
    assert recs[-1]["t"] == "metrics"
    assert recs[-1]["worker"] is True
    assert "worker.side" in [r.get("name") for r in recs]


def test_attach_worker_handles_fork_inherited_sink(tmp_path, clean_trace_state):
    """A forked pool worker inherits the parent's open sink and metric
    values; attach_worker must swap in its own handle, mark the process
    as a worker, and zero the inherited counts (they are the parent's)."""
    path = tmp_path / "t.jsonl"
    trace.start_run("root", path=path)
    METRICS.counter("tests.obs.trace.fork").inc(5)
    assert trace.attach_worker() == path
    assert METRICS.counter("tests.obs.trace.fork").value == 0
    with span("child.work"):
        pass
    trace.end_run()
    recs = read_records(path)
    assert recs[-1]["t"] == "metrics"
    assert recs[-1]["worker"] is True
    assert "tests.obs.trace.fork" not in recs[-1]["values"]
    assert "child.work" in [r.get("name") for r in recs]
    # The env export is the parent's to clean up, not the worker's.
    assert os.environ[trace.TRACE_FILE_ENV] == str(path)


def test_attach_worker_noop_when_tracing_off(clean_trace_state):
    assert trace.attach_worker() is None
    assert not trace.ACTIVE


def test_end_run_flushes_metrics_snapshot(trace_file):
    METRICS.counter("tests.obs.trace.flush").inc(7)
    trace.end_run()
    recs = read_records(trace_file)
    met = [r for r in recs if r["t"] == "metrics"]
    assert len(met) == 1
    assert met[0]["worker"] is False
    assert met[0]["values"]["tests.obs.trace.flush"] >= 7


def test_schema_round_trip_via_load_trace(trace_file):
    with span("outer", dataset="MILC-128"):
        event("progress", n_done=1, n_total=4)
        annotate(fingerprint="abc123")
    trace.end_run()
    data = load_trace(trace_file)
    assert data.manifest is not None
    assert [s["name"] for s in data.spans] == ["outer"]
    assert data.events[0]["name"] == "progress"
    assert data.events[0]["attrs"] == {"n_done": 1, "n_total": 4}
    assert data.annotations[0]["attrs"] == {"fingerprint": "abc123"}
    assert data.metrics and data.metrics[-1]["pid"] == os.getpid()


def test_load_trace_warns_on_corrupt_lines(trace_file):
    with span("fine"):
        pass
    trace.end_run()
    with open(trace_file, "a", encoding="utf-8") as fh:
        fh.write('{"t":"span","name":"torn","dur":0.\n')
    with pytest.warns(RuntimeWarning, match="unparseable"):
        data = load_trace(trace_file)
    assert [s["name"] for s in data.spans] == ["fine"]


def test_events_are_noop_when_disabled(clean_trace_state):
    event("ignored", n=1)
    annotate(key="value")  # must not raise, must not create files
    assert trace.current_trace_path() is None


def test_trace_dir_prefers_explicit_env(monkeypatch, tmp_path):
    monkeypatch.setenv(trace.TRACE_DIR_ENV, str(tmp_path / "explicit"))
    assert trace.trace_dir() == tmp_path / "explicit"
    monkeypatch.delenv(trace.TRACE_DIR_ENV)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert trace.trace_dir() == tmp_path / "cache" / "traces"


# --------------------------------------------------------------------------- #
# Size guard.
# --------------------------------------------------------------------------- #


def test_size_guard_truncates_runaway_trace(
    tmp_path, clean_trace_state, monkeypatch
):
    monkeypatch.setenv(trace.TRACE_MAX_ENV, "0.001")  # ~1 kB
    path = tmp_path / "big.jsonl"
    trace.start_run("guard", path=path)
    for i in range(500):
        event("tick", i=i, pad="x" * 64)
    trace.end_run()
    recs = read_records(path)
    markers = [r for r in recs if r.get("t") == "truncated"]
    assert len(markers) == 1
    assert markers[0]["limit_mb"] == pytest.approx(0.001, rel=0.01)
    assert markers[0]["size_bytes"] > 1024
    # Everything after the marker was dropped except the final metrics
    # snapshot; far fewer than the 500 events made it to disk.
    ticks = [r for r in recs if r.get("name") == "tick"]
    assert len(ticks) < 500
    # The marker is the last event-ish record before end_run's flush.
    idx = recs.index(markers[0])
    assert all(r["t"] == "metrics" for r in recs[idx + 1:])


def test_size_guard_resets_between_runs(
    tmp_path, clean_trace_state, monkeypatch
):
    monkeypatch.setenv(trace.TRACE_MAX_ENV, "0.001")
    first = tmp_path / "first.jsonl"
    trace.start_run("one", path=first)
    for i in range(500):
        event("tick", i=i, pad="x" * 64)
    trace.end_run()
    assert any(r.get("t") == "truncated" for r in read_records(first))
    monkeypatch.setenv(trace.TRACE_MAX_ENV, "64")
    second = tmp_path / "second.jsonl"
    trace.start_run("two", path=second)
    event("fresh", n=1)
    trace.end_run()
    recs = read_records(second)
    assert not any(r.get("t") == "truncated" for r in recs)
    assert "fresh" in [r.get("name") for r in recs]


def test_size_guard_default_far_above_test_traffic(trace_file):
    # No REPRO_TRACE_MAX_MB: the 512 MB default never trips in tests.
    for i in range(100):
        event("tick", i=i)
    trace.end_run()
    assert not any(
        r.get("t") == "truncated" for r in read_records(trace_file)
    )


@pytest.mark.parametrize("raw", ["abc", "12MB", "nan", "inf"])
def test_bad_size_cap_fails_when_tracing_starts(
    tmp_path, clean_trace_state, monkeypatch, raw
):
    monkeypatch.setenv(trace.TRACE_MAX_ENV, raw)
    path = tmp_path / "t.jsonl"
    with pytest.raises(ValueError, match=trace.TRACE_MAX_ENV):
        trace.start_run("bad", path=path)
    assert not path.exists()
    assert not trace.active()
