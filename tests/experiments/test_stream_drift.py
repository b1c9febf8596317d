"""End-to-end drift experiment: append re-runs only the fresh shards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign.runner import CampaignConfig
from repro.campaign.streaming import StreamConfig, run_stream
from repro.experiments.stream_drift import (
    fresh_shard_fingerprints,
    incremental_violations,
    plan_stream_drift,
    stream_drift,
    stream_keys,
)
from repro.ml.drift import DriftReport, rolling_drift
from repro.obs import METRICS

KEYS = ["AMG-128"]


@pytest.fixture()
def _stream_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_ARTIFACT_CACHE", "1")
    return tmp_path


@pytest.mark.artifact_cache
def test_stream_drift_append_is_incremental(_stream_env):
    base = CampaignConfig.tiny()
    camp2 = run_stream(StreamConfig(base=base, windows=2, window_days=2.0))
    result = stream_drift(camp2, keys=KEYS, fast=True)
    rep = result.data["reports"]["AMG-128"]
    assert isinstance(rep, DriftReport)
    assert [w.window for w in rep.windows] == [1]
    assert len(rep.windows[0].fresh) == len(rep.seeds)
    assert np.isfinite(rep.windows[0].fresh_mean)

    # Append one window: the resolved plan's only cold work is the new
    # window's shard cone plus stream-keyed bookkeeping and reduces.
    camp3 = run_stream(StreamConfig(base=base, windows=3, window_days=2.0))
    plans = plan_stream_drift(camp3, keys=KEYS, fast=True)
    fresh = fresh_shard_fingerprints(camp3)
    assert incremental_violations(plans, fresh) == []
    stale_misses = [
        p
        for p in plans
        if p.status == "miss" and p.stage.shard
        and not set(p.stage.shard) <= fresh
    ]
    assert stale_misses == []
    assert any(p.status == "hit" and p.stage.shard for p in plans)

    hit = METRICS.counter("graph.shard.hit")
    miss = METRICS.counter("graph.shard.miss")
    h0, m0 = hit.value, miss.value
    result3 = stream_drift(camp3, keys=KEYS, fast=True)
    rep3 = result3.data["reports"]["AMG-128"]
    assert [w.window for w in rep3.windows] == [1, 2]
    # Window 1's evaluation is identical whether computed in the
    # 2-window run or reused by the 3-window one.
    assert rep3.windows[0].fresh == rep.windows[0].fresh
    assert rep3.windows[0].stale == rep.windows[0].stale
    assert hit.value > h0
    # Fresh-window misses only: train (2 seeds) + eval for window 2.
    assert miss.value - m0 == 3
    assert "fresh MAPE" in result3.render()


def test_incremental_violations_classification():
    from repro.graph import Graph, GraphRunner, ArtifactStore
    from tests.graph.test_shard_stages import shard_body

    g = Graph()
    g.add("stale", shard_body, params={"value": 0}, dataset="K",
          shard="old0000000000000")
    g.add("fresh", shard_body, params={"value": 1}, dataset="K",
          shard="new0000000000000")
    g.add("full", shard_body, params={"value": 2}, dataset="K")
    g.add("root", shard_body, params={"value": 3}, campaign=True)
    g.add("reduce", shard_body, params={"value": 4},
          inputs=[("up", "fresh")])
    runner = GraphRunner(
        g, store=ArtifactStore(enabled=True), campaign_fingerprint="fp"
    )
    plans = [p for p in runner.plan() if p.status == "miss"]
    bad = incremental_violations(plans, {"new0000000000000"})
    assert len(bad) == 2
    assert any("stale-shard" in b for b in bad)
    assert any("full-dataset" in b for b in bad)


def test_stream_keys_requires_streamed_campaign(tiny_campaign):
    with pytest.raises(ValueError):
        stream_keys(tiny_campaign)


def test_rolling_drift_matches_graph_numbers(_stream_env):
    """The pure in-process driver computes the same trajectories."""
    from repro.experiments._forecast_common import fast_forecaster

    base = CampaignConfig.tiny()
    camp = run_stream(StreamConfig(base=base, windows=2, window_days=2.0))
    graph_rep = stream_drift(camp, keys=KEYS, fast=True).data["reports"][
        "AMG-128"
    ]
    pure = rolling_drift(
        camp["AMG-128"], m=3, k=2, tier="app", seeds=(0, 1),
        model_factory=fast_forecaster,
    )
    assert [w.window for w in pure.windows] == [
        w.window for w in graph_rep.windows
    ]
    for a, b in zip(pure.windows, graph_rep.windows):
        np.testing.assert_allclose(a.fresh, b.fresh, rtol=1e-12)
        np.testing.assert_allclose(a.stale, b.stale, rtol=1e-12)
    rows = pure.rows()
    assert rows and rows[0][0] == "w1"


def test_obs_report_surfaces_stream_counters():
    from repro.obs.report import _cache_summary

    lines = _cache_summary(
        {
            "graph.shard.hit": 10,
            "graph.shard.miss": 3,
            "graph.shard.run": 3,
        }
    )
    text = "\n".join(lines)
    assert "shard stages: 10 artifact hits, 3 misses, 3 stages run" in text
