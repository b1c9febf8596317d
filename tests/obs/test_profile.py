"""Resource profiler: sampling, aggregation, and the out-of-band rule."""

from __future__ import annotations

import json

from repro.graph import stage_fn
from repro.obs import METRICS, profiled_span, span, trace
from repro.obs.profile import (
    build_profile,
    profile_requested,
    stage_key,
    write_profile_json,
)
from repro.obs.report import TraceData

from tests.obs.conftest import read_records


def _profile_on(monkeypatch):
    monkeypatch.setenv(trace.PROFILE_ENV, "1")
    trace._refresh_gate()


def test_profiled_span_attaches_resource_deltas(trace_file, monkeypatch):
    _profile_on(monkeypatch)
    with profiled_span("graph.stage", stage="work"):
        sum(i * i for i in range(100000))
    trace.end_run()
    recs = [r for r in read_records(trace_file) if r.get("t") == "span"]
    assert len(recs) == 1
    prof = recs[0]["prof"]
    assert set(prof) >= {"cpu_user", "cpu_sys", "maxrss_kb", "gc_collections"}
    assert prof["maxrss_kb"] > 0
    assert prof["cpu_user"] >= 0.0


def test_profiled_span_reports_cache_deltas(trace_file, monkeypatch):
    _profile_on(monkeypatch)
    with profiled_span("graph.stage", stage="cachy"):
        METRICS.counter("features.cache.misses").inc(2)
    trace.end_run()
    recs = [r for r in read_records(trace_file) if r.get("t") == "span"]
    assert recs[0]["prof"]["cache"]["features.cache.misses"] == 2


def test_no_prof_field_without_profile_env(trace_file, monkeypatch):
    monkeypatch.delenv(trace.PROFILE_ENV, raising=False)
    assert not profile_requested()
    with profiled_span("graph.stage", stage="plain"):
        pass
    trace.end_run()
    recs = [r for r in read_records(trace_file) if r.get("t") == "span"]
    # Same record schema as a plain span: profiling off adds nothing.
    assert "prof" not in recs[0]


def test_profiled_span_noop_when_tracing_off(clean_trace_state, monkeypatch):
    monkeypatch.delenv(trace.PROFILE_ENV, raising=False)
    trace._refresh_gate()
    with profiled_span("anything") as sp:
        assert sp is span("x")  # the shared no-op instance
    assert trace.current_trace_path() is None


def test_profile_env_implies_tracing(tmp_path, clean_trace_state, monkeypatch):
    """REPRO_PROFILE=1 alone must open a sink: prof records need one."""
    monkeypatch.setenv(trace.PROFILE_ENV, "1")
    monkeypatch.setenv(trace.TRACE_DIR_ENV, str(tmp_path))
    trace._refresh_gate()
    assert trace.trace_requested()
    with profiled_span("auto.profiled"):
        pass
    path = trace.current_trace_path()
    assert path is not None
    trace.end_run()
    recs = [r for r in read_records(path) if r.get("t") == "span"]
    assert recs and "prof" in recs[0]


def test_end_run_writes_profile_json(tmp_path, clean_trace_state, monkeypatch):
    monkeypatch.setenv(trace.PROFILE_ENV, "1")
    trace._refresh_gate()
    path = tmp_path / "run.jsonl"
    trace.start_run("proftest", path=path)
    with profiled_span("graph.stage", stage="alpha"):
        pass
    trace.end_run()
    out = tmp_path / "run.profile.json"
    assert out.exists()
    prof = json.loads(out.read_text())
    assert "alpha" in prof["stages"]
    assert prof["stages"]["alpha"]["calls"] == 1


def test_stage_key_qualifies_cell():
    assert stage_key("rfe:AMG-128", None) == "rfe:AMG-128"
    assert stage_key("rfe:AMG-128", "df+/valiant") == "rfe:AMG-128@df+/valiant"


def _span_rec(name, sid, parent, dur, attrs=None, prof=None):
    rec = {
        "t": "span", "name": name, "id": sid, "parent": parent,
        "pid": 1, "ts": 0.0, "dur": dur, "ok": True,
    }
    if attrs:
        rec["attrs"] = attrs
    if prof:
        rec["prof"] = prof
    return rec


def test_build_profile_aggregates_stages_and_joins_plan(tmp_path):
    prof = {"cpu_user": 1.0, "cpu_sys": 0.5, "maxrss_kb": 100,
            "gc_collections": 2}
    data = TraceData(
        path=tmp_path / "t.jsonl",
        spans=[
            _span_rec("graph.run", "1.1", None, 10.0, prof=dict(prof)),
            _span_rec("graph.stage", "1.2", "1.1", 4.0,
                      attrs={"stage": "a"}, prof=dict(prof)),
            _span_rec("graph.stage", "1.3", "1.1", 2.0,
                      attrs={"stage": "a"}, prof=dict(prof)),
            _span_rec("graph.stage", "1.4", "1.1", 3.0,
                      attrs={"stage": "b", "cell": "df+/valiant"},
                      prof=dict(prof)),
        ],
        events=[
            {"t": "event", "name": "graph.plan", "attrs": {
                "cell": None,
                "stages": [
                    {"name": "warm", "status": "hit", "inputs": [],
                     "load_s": 0.25},
                    {"name": "a", "status": "miss", "inputs": ["warm"]},
                ],
            }},
        ],
    )
    out = build_profile(data)
    assert out["stages"]["a"]["calls"] == 2
    assert abs(out["stages"]["a"]["wall"] - 6.0) < 1e-9
    assert abs(out["stages"]["a"]["cpu_user"] - 2.0) < 1e-9
    assert out["stages"]["a"]["status"] == "run"
    # Cell-qualified key for the non-default cell.
    assert out["stages"]["b@df+/valiant"]["cell"] == "df+/valiant"
    # The hit enters from the plan event with its timed load.
    assert out["stages"]["warm"] == {
        "calls": 1, "wall": 0.25, "cpu_user": 0.0, "cpu_sys": 0.0,
        "maxrss_kb": 0, "gc_collections": 0, "cache": {},
        "stage": "warm", "cell": None, "status": "hit",
    }
    assert out["root"] == {"name": "graph.run", "wall": 10.0}
    assert out["cells"]["default"]["stages"] == 2
    assert out["cells"]["df+/valiant"]["stages"] == 1


def test_build_profile_none_without_prof_records(tmp_path):
    data = TraceData(
        path=tmp_path / "t.jsonl",
        spans=[_span_rec("plain", "1.1", None, 1.0)],
    )
    assert build_profile(data) is None


def test_write_profile_json_skips_unprofiled_trace(
    tmp_path, clean_trace_state
):
    path = tmp_path / "t.jsonl"
    trace.start_run("noprof", path=path)
    with span("plain"):
        pass
    trace.end_run()
    assert write_profile_json(path) is None
    assert not (tmp_path / "t.profile.json").exists()


@stage_fn(version=1)
def _emit(ctx):
    return {"v": sorted(range(ctx.params["n"]))}


def test_profiling_keeps_experiment_results_byte_identical(
    tmp_path, clean_trace_state, monkeypatch
):
    """The out-of-band rule: prof data changes the trace, not results."""
    from repro.graph import ArtifactStore, Graph, GraphRunner

    monkeypatch.setenv(trace.TRACE_DIR_ENV, str(tmp_path / "traces"))

    def run_once(profile: bool):
        if profile:
            monkeypatch.setenv(trace.PROFILE_ENV, "1")
        else:
            monkeypatch.delenv(trace.PROFILE_ENV, raising=False)
        trace._refresh_gate()
        g = Graph()
        g.add("emit", _emit, params={"n": 64})
        store = ArtifactStore(root=tmp_path / f"store-{profile}", enabled=True)
        runner = GraphRunner(g, store=store, campaign_fingerprint=None)
        out = runner.run(["emit"])
        trace.end_run()
        return json.dumps(out, sort_keys=True)

    assert run_once(False) == run_once(True)
