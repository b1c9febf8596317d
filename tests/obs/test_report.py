"""Report rendering: self/cum aggregation, tree assembly, the CLI."""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs import METRICS, annotate, span
from repro.obs import trace
from repro.obs.__main__ import main as obs_main
from repro.obs.report import (
    TraceData,
    aggregate_spans,
    latest_trace,
    render_report,
    span_tree,
)


def _span(name, sid, parent, ts, dur, ok=True):
    return {
        "t": "span", "name": name, "id": sid, "parent": parent,
        "pid": 1, "ts": ts, "dur": dur, "ok": ok,
    }


def test_aggregate_self_time_subtracts_direct_children():
    spans = [
        _span("child", "1.2", "1.1", 0.1, 0.3),
        _span("child", "1.3", "1.1", 0.5, 0.2),
        _span("root", "1.1", None, 0.0, 1.0),
    ]
    by_name = {a.name: a for a in aggregate_spans(spans)}
    assert by_name["root"].cum == 1.0
    assert abs(by_name["root"].self_time - 0.5) < 1e-12
    assert by_name["child"].calls == 2
    assert abs(by_name["child"].cum - 0.5) < 1e-12


def test_aggregate_clamps_overlapping_parallel_children():
    """Workers' child spans can sum past the parent's wall time."""
    spans = [
        _span("task", "1.2", "1.1", 0.0, 0.9),
        _span("task", "1.3", "1.1", 0.0, 0.9),
        _span("pool", "1.1", None, 0.0, 1.0),
    ]
    by_name = {a.name: a for a in aggregate_spans(spans)}
    assert by_name["pool"].self_time == 0.0


def test_self_rss_growth_subtracts_same_process_children():
    """A parent's self growth leaves out what its in-process children
    raised the high-water by; a worker child's growth is its own."""

    def grown(rec, kb, pid=1):
        return rec | {"pid": pid, "prof": {"maxrss_growth_kb": kb}}

    spans = [
        grown(_span("child", "1.2", "1.1", 0.1, 0.3), 3000),
        grown(_span("child", "1.3", "1.1", 0.5, 0.2), 1000),
        grown(_span("task", "2.1", "1.1", 0.0, 0.9), 9000, pid=2),
        grown(_span("root", "1.1", None, 0.0, 1.0), 5000),
    ]
    by_name = {a.name: a for a in aggregate_spans(spans)}
    assert by_name["root"].self_growth_kb == 1000
    assert by_name["child"].self_growth_kb == 4000
    assert by_name["task"].self_growth_kb == 9000
    out = render_report(TraceData(path=Path("x.jsonl"), spans=spans))
    assert "self rss+ kB" in out
    root_line = next(ln for ln in out.splitlines() if ln.startswith("root "))
    assert root_line.split()[-1] == "1000"


def test_span_tree_depths_and_orphans():
    spans = [
        _span("root", "1.1", None, 0.0, 1.0),
        _span("mid", "1.2", "1.1", 0.1, 0.5),
        _span("leaf", "1.3", "1.2", 0.2, 0.1),
        _span("orphan", "2.9", "2.1", 0.3, 0.2),  # parent never recorded
    ]
    tree = span_tree(spans)
    depths = {rec["name"]: depth for depth, rec in tree}
    assert depths == {"root": 0, "mid": 1, "leaf": 2, "orphan": 0}
    assert len(tree) == 4


def test_render_report_table_cache_and_failures(tmp_path):
    data = TraceData(
        path=tmp_path / "x.jsonl",
        manifest={
            "t": "manifest", "run_id": "r1", "argv": ["prog"],
            "platform": "linux", "versions": {"python": "3.11"},
            "env": {"REPRO_FAST": "1"},
        },
        spans=[
            _span("work", "1.1", None, 0.0, 2.0),
            _span("broken", "1.2", "1.1", 0.5, 0.1, ok=False)
            | {"err": "ValueError: nope"},
        ],
        metrics=[
            {
                "t": "metrics", "pid": 1, "worker": False,
                "values": {
                    "features.cache.hits": 3,
                    "features.cache.misses": 4,
                    "campaign.cache.hits": 1,
                },
            },
            {
                "t": "metrics", "pid": 2, "worker": True,
                "values": {"features.cache.misses": 2},
            },
        ],
    )
    out = render_report(data, tree=True)
    assert "run:      r1" in out
    assert "REPRO_FAST=1" in out
    assert "work" in out and "broken" in out
    # 3 memo hits out of 9 total accesses across both processes.
    assert "feature cache: 3 memo hits, 6 builds (33.3% hit rate)" in out
    assert "campaign cache: 1 hits, 0 generations" in out
    assert "1 span(s) ended in an exception:" in out
    assert "broken: ValueError: nope" in out
    assert "  broken" in out  # tree indentation


def test_latest_trace_picks_newest(tmp_path):
    assert latest_trace(tmp_path) is None
    old = tmp_path / "a.jsonl"
    new = tmp_path / "b.jsonl"
    old.write_text("{}\n")
    new.write_text("{}\n")
    import os

    os.utime(old, (1, 1))
    assert latest_trace(tmp_path) == new


def _write_real_trace(tmp_path) -> Path:
    path = tmp_path / "real.jsonl"
    trace.start_run("clitest", path=path)
    with span("cli.work", n=2):
        annotate(campaign_fingerprint="deadbeef")
        METRICS.counter("features.cache.hits").inc()
    trace.end_run()
    return path


def test_cli_report_on_file(tmp_path, clean_trace_state, capsys):
    path = _write_real_trace(tmp_path)
    assert obs_main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "cli.work" in out
    assert "campaign_fingerprint=deadbeef" in out
    assert "self %" in out


def test_cli_report_on_directory(tmp_path, clean_trace_state, capsys):
    _write_real_trace(tmp_path)
    assert obs_main(["report", str(tmp_path)]) == 0
    assert "cli.work" in capsys.readouterr().out


def test_cli_report_tree_flag(tmp_path, clean_trace_state, capsys):
    path = _write_real_trace(tmp_path)
    assert obs_main(["report", str(path), "--tree"]) == 0
    assert "cli.work  " in capsys.readouterr().out


def test_cli_report_empty_dir_fails(tmp_path, capsys):
    assert obs_main(["report", str(tmp_path)]) == 1
    assert "no traces" in capsys.readouterr().err


def test_cli_report_missing_file_fails(tmp_path, capsys):
    assert obs_main(["report", str(tmp_path / "nope.jsonl")]) == 1
    assert "no such trace" in capsys.readouterr().err


def test_cli_default_uses_trace_dir(tmp_path, clean_trace_state, monkeypatch, capsys):
    monkeypatch.setenv(trace.TRACE_DIR_ENV, str(tmp_path))
    _write_real_trace(tmp_path)
    assert obs_main(["report"]) == 0
    assert "cli.work" in capsys.readouterr().out


def test_report_output_is_json_free(tmp_path, clean_trace_state, capsys):
    """The report is the human view; raw JSON stays in the file."""
    path = _write_real_trace(tmp_path)
    obs_main(["report", str(path)])
    out = capsys.readouterr().out
    assert not any(line.startswith("{") for line in out.splitlines())
    # ... while the trace itself is line-delimited JSON.
    for line in path.read_text().splitlines():
        json.loads(line)


# --------------------------------------------------------------------------- #
# Critical path, profile summary, and the JSON report.
# --------------------------------------------------------------------------- #


def _dag_trace(tmp_path, cell=None):
    """A three-stage chain (a -> b -> c) plus an off-path hit."""
    prof = {"cpu_user": 1.0, "cpu_sys": 0.1, "maxrss_kb": 64,
            "gc_collections": 0}

    def stage(name, sid, ts, dur):
        attrs = {"stage": name}
        if cell:
            attrs["cell"] = cell
        rec = _span("graph.stage", sid, "1.1", ts, dur)
        rec["attrs"] = attrs
        rec["prof"] = dict(prof)
        return rec

    run = _span("graph.run", "1.1", None, 0.0, 10.0)
    if cell:
        run["attrs"] = {"cell": cell}
    return TraceData(
        path=tmp_path / "dag.jsonl",
        spans=[
            run,
            stage("a", "1.2", 0.0, 2.0),
            stage("b", "1.3", 2.0, 5.0),
            stage("c", "1.4", 7.0, 1.0),
        ],
        events=[{
            "t": "event", "name": "graph.plan",
            "attrs": {
                "cell": cell,
                "stages": [
                    {"name": "warm", "status": "hit", "inputs": [],
                     "load_s": 0.1},
                    {"name": "a", "status": "miss", "inputs": []},
                    {"name": "b", "status": "miss", "inputs": ["a", "warm"]},
                    {"name": "c", "status": "miss", "inputs": ["b"]},
                ],
            },
        }],
    )


def test_critical_path_follows_dominant_chain(tmp_path):
    from repro.obs.report import critical_paths

    (cp,) = critical_paths(_dag_trace(tmp_path))
    assert [st["name"] for st in cp["chain"]] == ["a", "b", "c"]
    assert abs(cp["chain_wall"] - 8.0) < 1e-9
    assert cp["root_wall"] == 10.0
    assert cp["root_span"] == "graph.run"
    # The cheap hit is not on the path even though b depends on it.
    assert all(st["name"] != "warm" for st in cp["chain"])


def test_critical_path_shares_the_enclosing_experiment_wall(tmp_path):
    """A cold run executes ``campaign`` at graph-build time, outside
    ``graph.run``: the chain is a share of the experiment span's wall."""
    from repro.obs.report import critical_paths, render_critical_path

    data = _dag_trace(tmp_path)
    run = data.spans[0]
    run.update(parent="1.0", ts=9.0, dur=8.5)
    data.spans += [
        _span("experiment.fig03", "1.0", None, 0.0, 18.0),
        dict(
            _span("graph.stage", "1.5", "1.0", 0.0, 9.0),
            attrs={"stage": "campaign"},
        ),
    ]
    plan = data.events[0]["attrs"]["stages"]
    plan.insert(0, {"name": "campaign", "status": "miss", "inputs": []})
    plan[2]["inputs"] = ["campaign"]  # a <- campaign

    (cp,) = critical_paths(data)
    assert [st["name"] for st in cp["chain"]] == ["campaign", "a", "b", "c"]
    assert abs(cp["chain_wall"] - 17.0) < 1e-9
    assert cp["root_wall"] == 18.0
    assert cp["root_span"] == "experiment.fig03"
    assert cp["chain_wall"] <= cp["root_wall"]
    assert "experiment.fig03 wall 18.000s (94% on the chain)" in (
        render_critical_path(data)
    )


def test_critical_path_render_names_cell(tmp_path):
    from repro.obs.report import render_critical_path

    out = render_critical_path(_dag_trace(tmp_path, cell="df+/valiant"))
    assert "cell df+/valiant" in out
    assert "3 of 4 stages" in out
    assert "[run ]" in out


def test_critical_path_without_plan_events(tmp_path):
    from repro.obs.report import render_critical_path

    data = TraceData(path=tmp_path / "x.jsonl",
                     spans=[_span("work", "1.1", None, 0.0, 1.0)])
    assert "no graph.plan events" in render_critical_path(data)


def test_report_renders_profile_summary_and_per_cell_cache(tmp_path):
    data = _dag_trace(tmp_path, cell="df+/valiant")
    data.metrics = [{
        "t": "metrics", "pid": 1, "worker": False,
        "values": {
            "graph.stage.hit": 2, "graph.stage.run": 3,
            "graph.stage.hit[df+/valiant]": 2,
            "graph.stage.run[df+/valiant]": 3,
        },
    }]
    out = render_report(data)
    assert "profiled stages" in out
    assert "b@df+/valiant" in out
    assert "cell df+/valiant: 2 artifact hits" in out


def test_report_warns_on_truncated_trace(tmp_path):
    data = _dag_trace(tmp_path)
    data.truncated = [{"t": "truncated", "size_bytes": 2048,
                       "limit_mb": 0.001}]
    assert "truncated" in render_report(data)


def test_cli_report_critical_path_flag(tmp_path, clean_trace_state, capsys):
    path = _write_real_trace(tmp_path)
    assert obs_main(["report", str(path), "--critical-path"]) == 0
    # This trace has no DAG run, so the flag explains what is missing.
    assert "no graph.plan events" in capsys.readouterr().out


def test_cli_report_json_format(tmp_path, clean_trace_state, capsys):
    path = _write_real_trace(tmp_path)
    assert obs_main(["report", str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == 1
    assert doc["run_id"].endswith("clitest")
    assert any(s["name"] == "cli.work" for s in doc["spans"])
    assert "metrics" in doc and "critical_path" in doc


def test_cli_report_json_critical_path_narrows(tmp_path, clean_trace_state, capsys):
    path = _write_real_trace(tmp_path)
    assert obs_main(
        ["report", str(path), "--format", "json", "--critical-path"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"critical_path"}
