"""End-to-end: one traced fast-mode experiment yields a usable trace.

Runs ``python -m repro.experiments fig09 --fast`` in a subprocess with
``REPRO_TRACE=1`` and asserts the resulting JSONL trace parses, its span
tree covers campaign generation, feature-store work, and pipeline
fit/predict, it is the run's profile (every span carries its resource
sample, and the stages account for the root wall), and ``python -m
repro.obs report`` summarises it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.profile import build_profile
from repro.obs.report import latest_trace, load_trace, render_report, span_tree

REPO = Path(__file__).resolve().parent.parent.parent


@pytest.fixture(scope="module")
def traced_fig09(tmp_path_factory):
    cache = tmp_path_factory.mktemp("obscache")
    traces = tmp_path_factory.mktemp("traces")
    env = dict(os.environ)
    env.update(
        REPRO_FAST="1",
        REPRO_TRACE="1",
        REPRO_CACHE_DIR=str(cache),
        REPRO_TRACE_DIR=str(traces),
    )
    env.pop("REPRO_TRACE_FILE", None)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "fig09", "--fast"],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
        cwd=str(REPO),
    )
    assert proc.returncode == 0, proc.stderr
    path = latest_trace(traces)
    assert path is not None, "traced run produced no trace file"
    return proc, path


def test_trace_is_parseable_with_manifest(traced_fig09):
    _, path = traced_fig09
    data = load_trace(path)
    assert data.manifest is not None
    assert data.manifest["env"]["REPRO_TRACE"] == "1"
    assert data.metrics, "no final metrics snapshot flushed"


def test_span_tree_covers_campaign_features_and_pipeline(traced_fig09):
    _, path = traced_fig09
    data = load_trace(path)
    names = {s["name"] for s in data.spans}
    assert "experiment.fig09" in names
    assert "campaign.run" in names
    assert "features.build" in names
    assert "ml.pipeline.fit" in names
    assert "ml.pipeline.predict" in names
    assert "ml.rfe.fold" in names
    # Everything hangs off the experiment span (workers re-rooted too).
    roots = [rec["name"] for depth, rec in span_tree(data.spans) if depth == 0]
    assert "experiment.fig09" in roots


def test_every_span_carries_its_resource_sample(traced_fig09):
    _, path = traced_fig09
    # One file per run: the trace is the profile, nothing sits beside it.
    assert list(path.parent.iterdir()) == [path]
    spans = load_trace(path).spans
    assert spans
    for sp in spans:
        prof = sp.get("prof", {})
        assert {"cpu_user", "cpu_sys", "maxrss_kb", "gc_collections"} <= set(
            prof
        ), sp["name"]


def test_plain_trace_profiles_every_stage(traced_fig09):
    _, path = traced_fig09
    prof = build_profile(load_trace(path))
    stages = set(prof["stages"])
    rfe = {key for key in stages if key.startswith("rfe:")}
    assert len(rfe) == 6
    assert stages == {"campaign", "render:fig09"} | rfe
    # Stage walls are parent-level and cover the cold run end to end.
    staged = sum(rec["wall"] for rec in prof["stages"].values())
    assert staged >= 0.95 * prof["root"]["wall"]


def test_worker_spans_joined_the_trace(traced_fig09):
    _, path = traced_fig09
    data = load_trace(path)
    pids = {s["pid"] for s in data.spans}
    workers = [m for m in data.metrics if m.get("worker")]
    # Parallel generation is the default; if the box has one core the
    # campaign runs serially and there is nothing to join.
    if len(pids) > 1:
        assert workers, "worker processes left no metrics snapshot"


def test_progress_events_recorded(traced_fig09):
    _, path = traced_fig09
    data = load_trace(path)
    progress = [e for e in data.events if e["name"] == "campaign.progress"]
    assert progress, "campaign generation emitted no progress events"
    last = progress[-1]["attrs"]
    assert last["n_done"] == last["n_total"]
    assert last["elapsed"] >= 0
    assert isinstance(last["datasets"], dict)


def test_report_summarises_the_trace(traced_fig09):
    _, path = traced_fig09
    out = render_report(load_trace(path))
    assert "experiment.fig09" in out
    assert "feature cache:" in out
    assert "campaign cache:" in out
    assert "self %" in out


def test_report_cli_subprocess(traced_fig09):
    _, path = traced_fig09
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs", "report", str(path), "--tree"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        cwd=str(REPO),
    )
    assert proc.returncode == 0, proc.stderr
    assert "experiment.fig09" in proc.stdout
