"""Resource samples on spans, profile aggregation, and the out-of-band rule."""

from __future__ import annotations

import json

from repro.graph import stage_fn
from repro.obs import METRICS, span, trace
from repro.obs.profile import build_profile, stage_key
from repro.obs.report import TraceData

from tests.obs.conftest import read_records


def test_span_attaches_resource_deltas(trace_file):
    with span("graph.stage", stage="work"):
        sum(i * i for i in range(100000))
    trace.end_run()
    recs = [r for r in read_records(trace_file) if r.get("t") == "span"]
    assert len(recs) == 1
    prof = recs[0]["prof"]
    assert set(prof) >= {"cpu_user", "cpu_sys", "maxrss_kb", "gc_collections"}
    assert prof["maxrss_kb"] > 0
    assert prof["cpu_user"] >= 0.0


def test_span_records_its_rss_high_water_growth(trace_file, monkeypatch):
    """``maxrss_growth_kb`` is the high-water at exit minus at entry."""
    from repro.obs import spans

    readings = iter([1000, 1000, 5000, 5000])
    monkeypatch.setattr(spans, "_maxrss_kb", lambda: next(readings))
    with span("outer"):
        with span("inner"):
            pass
    trace.end_run()
    recs = {
        r["name"]: r["prof"]
        for r in read_records(trace_file) if r.get("t") == "span"
    }
    assert recs["inner"]["maxrss_growth_kb"] == 4000
    assert recs["inner"]["maxrss_kb"] == 5000
    assert recs["outer"]["maxrss_growth_kb"] == 4000


def test_span_reports_cache_deltas(trace_file):
    with span("graph.stage", stage="cachy"):
        METRICS.counter("features.cache.misses").inc(2)
    trace.end_run()
    recs = [r for r in read_records(trace_file) if r.get("t") == "span"]
    assert recs[0]["prof"]["cache"]["features.cache.misses"] == 2


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


@stage_fn(version=1)
def _emit(ctx):
    return {"v": sorted(range(ctx.params["n"]))}


def test_profiling_keeps_experiment_results_byte_identical(
    tmp_path, clean_trace_state, monkeypatch
):
    """The out-of-band rule: tracing (and its resource samples) changes
    the trace, not results."""
    from repro.graph import ArtifactStore, Graph, GraphRunner

    monkeypatch.setenv(trace.TRACE_DIR_ENV, str(tmp_path / "traces"))

    def run_once(traced: bool):
        if traced:
            monkeypatch.setenv(trace.TRACE_ENV, "1")
        else:
            monkeypatch.delenv(trace.TRACE_ENV, raising=False)
        trace._refresh_gate()
        g = Graph()
        g.add("emit", _emit, params={"n": 64})
        store = ArtifactStore(root=tmp_path / f"store-{traced}", enabled=True)
        runner = GraphRunner(g, store=store, campaign_fingerprint=None)
        out = runner.run(["emit"])
        trace.end_run()
        return json.dumps(out, sort_keys=True)

    assert run_once(False) == run_once(True)
    # The traced run wrote one file, the trace, and sampled every span.
    (path,) = (tmp_path / "traces").iterdir()
    assert path.suffix == ".jsonl"
    spans = [r for r in read_records(path) if r.get("t") == "span"]
    assert spans and all("prof" in r for r in spans)
