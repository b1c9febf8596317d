"""Trace export: the chrome-trace document from span trees."""

from __future__ import annotations

import json

import pytest

from repro.obs import span, trace
from repro.obs.__main__ import main as obs_main
from repro.obs.export import chrome_trace, export_trace
from repro.obs.report import load_trace


def _traced_run(tmp_path):
    path = tmp_path / "run.jsonl"
    trace.start_run("exptest", path=path)
    with span("outer", kind="root"):
        with span("graph.stage", stage="inner"):
            pass
        trace.event("progress", n=1)
    trace.end_run()
    return load_trace(path)


def test_chrome_trace_complete_events(tmp_path, clean_trace_state):
    doc = chrome_trace(_traced_run(tmp_path))
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in spans] == ["outer", "graph.stage"]
    outer, inner = spans
    # Microseconds, zero-based, child inside parent.
    assert outer["ts"] == 0.0
    assert inner["ts"] >= outer["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1
    # Attributes and the span's resource sample ride in args.
    assert outer["args"]["kind"] == "root"
    assert set(outer["args"]) == {"kind", "prof"}
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert [e["name"] for e in instants] == ["progress"]


def test_chrome_trace_carries_prof_in_args(tmp_path, clean_trace_state):
    doc = chrome_trace(_traced_run(tmp_path))
    inner = next(
        e for e in doc["traceEvents"] if e["name"] == "graph.stage"
    )
    assert "cpu_user" in inner["args"]["prof"]


def test_export_trace_default_paths(tmp_path, clean_trace_state):
    data = _traced_run(tmp_path)
    out = export_trace(data)
    assert out == tmp_path / "run.chrome.json"
    assert json.loads(out.read_text())["traceEvents"]


def test_cli_export(tmp_path, clean_trace_state, capsys):
    _traced_run(tmp_path)
    out = tmp_path / "custom.json"
    assert obs_main(
        ["export", str(tmp_path / "run.jsonl"), "--out", str(out)]
    ) == 0
    assert "wrote" in capsys.readouterr().out
    assert json.loads(out.read_text())["traceEvents"]
    assert obs_main(["export", str(tmp_path / "run.jsonl")]) == 0
    assert (tmp_path / "run.chrome.json").exists()


def test_cli_export_has_no_format_flag(tmp_path, clean_trace_state, capsys):
    _traced_run(tmp_path)
    with pytest.raises(SystemExit) as exc:
        obs_main(["export", str(tmp_path / "run.jsonl"),
                  "--format", "chrome-trace"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
