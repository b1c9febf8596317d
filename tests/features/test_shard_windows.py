"""Streamed datasets: window tensors byte-identical to the monolithic build.

A combined streamed dataset (shards concatenated by
:func:`repro.campaign.streaming._combine_shards`) must give the feature
store the same tier matrices and window tensors as a plain dataset of
the same runs — for every window size, both topology cells, and uneven
shards.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign.runner import CampaignConfig
from repro.campaign.streaming import StreamConfig, _combine_shards, run_stream
from repro.features import FeatureSpec, build_windows, get_store

from tests.features.test_store import _dataset


def _streamed(counts, key="SYN-64", t=12):
    """Hand-built multi-shard dataset plus its monolithic twin."""
    views = []
    for i, n in enumerate(counts):
        v = _dataset(key=key, n=n, t=t, seed=100 + i)
        v.campaign_fingerprint = f"window{i:012d}fp00"
        views.append(v)
    combined = _combine_shards(
        key, views, [0.0] * len(views), "streamfp00000000"
    )
    # The monolithic twin: same runs, no shard views, no provenance.
    from repro.campaign.datasets import RunDataset

    mono = RunDataset(key=key, runs=list(combined.runs))
    return combined, mono


def _assert_identical(combined, mono, spec, m, k, align_m=None):
    xs, ys, gs = get_store(combined).windows(spec, m, k, align_m=align_m)
    xm, ym, gm = build_windows(
        spec.matrix(mono), [r.step_times for r in mono.runs], m, k,
        align_m=align_m,
    )
    assert xs.tobytes() == np.ascontiguousarray(xm).tobytes()
    assert ys.tobytes() == np.ascontiguousarray(ym).tobytes()
    assert gs.tobytes() == np.ascontiguousarray(gm).tobytes()


@pytest.mark.parametrize("m,k", [(1, 1), (5, 3), (11, 1)])
def test_shard_windows_byte_identical(m, k):
    """m = 1, a mid-size m, and m spanning all but one step of a shard."""
    combined, mono = _streamed([2, 3, 2])
    _assert_identical(combined, mono, FeatureSpec.resolve("app"), m, k)


def test_shard_windows_byte_identical_with_align():
    combined, mono = _streamed([3, 2])
    spec = FeatureSpec.resolve("app+placement")
    _assert_identical(combined, mono, spec, 2, 2, align_m=5)


def test_shard_tier_matrix_byte_identical():
    combined, mono = _streamed([2, 4])
    spec = FeatureSpec.resolve("app+placement+io+sys")
    xs = get_store(combined).features(spec)
    assert xs.tobytes() == np.ascontiguousarray(spec.matrix(mono)).tobytes()


def test_shard_channel_windows_byte_identical():
    combined, mono = _streamed([2, 2])
    from repro.features import LDMS_SPEC

    ch = LDMS_SPEC.feature_names()[0]
    xs, ys, gs = get_store(combined).channel_windows(ch, 3, 2)
    feats = LDMS_SPEC.matrix(mono)
    xm, ym, gm = build_windows(feats, feats[:, :, 0], 3, 2)
    assert np.array_equal(xs, xm)
    assert np.array_equal(ys, ym)
    assert np.array_equal(gm, gs)


@pytest.mark.parametrize("cell", [None, ("df+", "valiant")])
def test_real_stream_windows_byte_identical_per_cell(
    cell, tmp_path, monkeypatch
):
    """Both topology cells: streamed tensors == monolithic tensors."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    overrides = {}
    if cell is not None:
        from repro.topology.registry import canonical_routing, canonical_topology

        overrides = {
            "topology": canonical_topology(cell[0]),
            "routing": canonical_routing(cell[1]),
        }
    base = CampaignConfig.tiny(**overrides)
    camp = run_stream(StreamConfig(base=base, windows=2, window_days=2.0))
    ds = camp["MILC-128"]
    assert len(ds.shard_views) == 2
    spec = FeatureSpec.resolve("app")
    for m, k in [(1, 1), (4, 3)]:
        xs, ys, gs = get_store(ds).windows(spec, m, k)
        xm, ym, gm = build_windows(
            spec.matrix(ds), [r.step_times for r in ds.runs], m, k
        )
        assert xs.tobytes() == np.ascontiguousarray(xm).tobytes()
        assert ys.tobytes() == np.ascontiguousarray(ym).tobytes()
        assert gs.tobytes() == np.ascontiguousarray(gm).tobytes()
