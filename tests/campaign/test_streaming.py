"""Streaming mode: shard identity, degenerate equivalence, append."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.campaign.datasets import RunDataset
from repro.campaign.runner import CampaignConfig, run_campaign
from repro.campaign.streaming import (
    StreamConfig,
    render_stream,
    run_stream,
    shard_fingerprint,
    shard_view,
    stream_fingerprint,
    window_seed,
)
from repro.obs import METRICS

from tests.features.test_store import _dataset


# --------------------------------------------------------------------- #
# identity model (pure, no generation)
# --------------------------------------------------------------------- #


def test_single_window_stream_is_the_base_config():
    base = CampaignConfig.tiny()
    sc = StreamConfig(base=base, windows=1)
    assert sc.window_config(0) is base
    assert sc.fingerprint() == base.fingerprint()


def test_window_fingerprints_are_append_stable():
    base = CampaignConfig.tiny()
    two = StreamConfig(base=base, windows=2, window_days=2.0)
    three = StreamConfig(base=base, windows=3, window_days=2.0)
    assert three.window_fingerprints()[:2] == two.window_fingerprints()
    assert three.fingerprint() != two.fingerprint()


def test_window_seed_stable_and_distinct():
    assert window_seed(42, 0) == 42
    seeds = [window_seed(42, w) for w in range(6)]
    assert len(set(seeds)) == len(seeds)
    assert seeds == [window_seed(42, w) for w in range(6)]
    # hash-derived, not offset: neighbouring base seeds don't collide
    assert window_seed(42, 1) != window_seed(43, 1) != 44


def test_windowed_streams_drop_long_runs():
    base = CampaignConfig.tiny()
    assert base.long_runs  # precondition: the tiny config has one
    sc = StreamConfig(base=base, windows=3, window_days=2.0)
    for w in range(3):
        cfg = sc.window_config(w)
        assert cfg.long_runs == ()
        assert cfg.days == 2.0


def test_stream_config_validation():
    base = CampaignConfig.tiny()
    with pytest.raises(ValueError):
        StreamConfig(base=base, windows=0)
    with pytest.raises(ValueError):
        StreamConfig(base=base, windows=2, window_days=-1.0)
    with pytest.raises(ValueError):
        StreamConfig(base=base, windows=2).window_config(5)


def test_shard_fingerprint_formula():
    """sha256 of "<window fp>/<key>", first 16 hex digits: the name the
    manifest and the shard-scoped stages share, so it must not drift."""
    fp = shard_fingerprint("aaaabbbbccccdddd", "AMG-128")
    assert fp == hashlib.sha256(b"aaaabbbbccccdddd/AMG-128").hexdigest()[:16]
    assert fp == "51518201a360da09"
    assert shard_fingerprint("aaaabbbbccccdddd", "MILC-128") != fp


def test_stream_fingerprint_degenerates_to_window():
    assert stream_fingerprint(["abc"]) == "abc"
    two = stream_fingerprint(["abc", "def"])
    assert two != stream_fingerprint(["def", "abc"])  # order matters


def test_shard_view_of_plain_dataset_is_itself():
    ds = _dataset()
    assert shard_view(ds, 0) is ds
    with pytest.raises(IndexError):
        shard_view(ds, 1)


# --------------------------------------------------------------------- #
# provenance stamping on save/load (warm loads must not re-key caches)
# --------------------------------------------------------------------- #


def test_dataset_load_restores_campaign_fingerprint(tmp_path):
    ds = _dataset(key="AMG-128")
    ds.save(tmp_path / "AMG-128", campaign_fingerprint="feedfacefeedface")
    loaded = RunDataset.load(tmp_path / "AMG-128")
    assert loaded.campaign_fingerprint == "feedfacefeedface"


def test_dataset_save_without_stamp_loads_unstamped(tmp_path):
    ds = _dataset(key="SYN-64")
    ds.save(tmp_path / "SYN-64")
    assert RunDataset.load(tmp_path / "SYN-64").campaign_fingerprint is None


# --------------------------------------------------------------------- #
# real generation: degenerate equivalence and incremental append
# --------------------------------------------------------------------- #


@pytest.fixture()
def _stream_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def test_single_window_stream_reproduces_one_shot(_stream_cache):
    """Degenerate case: same fingerprints, byte-identical datasets."""
    base = CampaignConfig.tiny()
    camp = run_stream(StreamConfig(base=base, windows=1))
    one_shot = run_campaign(base)  # loads the very same cache entry
    assert camp.stream.fingerprint == base.fingerprint()
    for key in one_shot.keys():
        a, b = camp[key], one_shot[key]
        assert a.campaign_fingerprint == b.campaign_fingerprint
        assert np.array_equal(a.Y, b.Y)
        assert len(a.shard_views) == 1
        assert camp.stream.shard(key, 0) == shard_fingerprint(
            base.fingerprint(), key
        )


def test_append_generates_only_the_new_window(_stream_cache):
    base = CampaignConfig.tiny()
    sc2 = StreamConfig(base=base, windows=2, window_days=2.0)
    camp2 = run_stream(sc2)

    hits = METRICS.counter("campaign.cache.hits")
    misses = METRICS.counter("campaign.cache.misses")
    h0, m0 = hits.value, misses.value
    sc3 = StreamConfig(base=base, windows=3, window_days=2.0)
    camp3 = run_stream(sc3)
    # Appending window 2 loads windows 0-1 from disk and generates one.
    assert hits.value - h0 == 2
    assert misses.value - m0 == 1

    # Prefix stability is exact: the common windows are byte-identical.
    for key in camp2.keys():
        a, b = camp2[key], camp3[key]
        assert [camp2.stream.shard(key, w) for w in range(2)] == [
            camp3.stream.shard(key, w) for w in range(2)
        ]
        for va, vb in zip(a.shard_views, b.shard_views):
            assert np.array_equal(va.Y, vb.Y)
    # Combined runs concatenate in window order with offset start times.
    ds = camp3["AMG-128"]
    assert len(ds) == sum(len(v) for v in ds.shard_views)
    assert [r.run_index for r in ds.runs] == list(range(len(ds)))
    starts = ds.start_times
    per_window = len(ds) // 3
    assert starts[per_window] > starts[:per_window].max()

    # The manifest lives on the campaign only: it names every window and
    # shard, and the run writes no manifest file.
    man = camp3.stream
    assert man.fingerprint == sc3.fingerprint()
    assert man.window_fingerprints() == sc3.window_fingerprints()
    assert man.window_fingerprints()[:2] == camp2.stream.window_fingerprints()
    assert man.shard("AMG-128", 2) == shard_fingerprint(
        man.window_fingerprints()[2], "AMG-128"
    )
    assert "window 2" in render_stream(man)
    assert not (_stream_cache / "streams").exists()
