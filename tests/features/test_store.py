"""FeatureStore behaviour: memoization, disk roundtrip, corruption, windows."""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign.datasets import RunDataset, RunRecord
from repro.features import (
    LDMS_SPEC,
    TIERS,
    FeatureSpec,
    FeatureStore,
    build_windows,
    clear_feature_caches,
    get_store,
)
from repro.obs import METRICS


def _counts() -> tuple[int, int, int]:
    """(memo hits, disk hits, misses) of the feature-cache counters."""
    return tuple(
        METRICS.counter(f"features.cache.{name}").value
        for name in ("hits", "disk_hits", "misses")
    )


def _dataset(key="SYN-64", n=6, t=12, seed=0):
    rng = np.random.default_rng(seed)
    runs = []
    for i in range(n):
        y = 10 + rng.normal(0, 1, t)
        runs.append(
            RunRecord(
                run_index=i,
                start_time=float(i) * 1e4,
                step_times=y,
                compute_times=y * 0.2,
                mpi_times=y * 0.8,
                counters=rng.lognormal(0, 0.1, (t, 13)),
                ldms=rng.lognormal(0, 0.1, (t, 8)),
                num_routers=10,
                num_groups=3,
                neighborhood=[],
                routine_times={},
            )
        )
    return RunDataset(key=key, runs=runs)


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch, tmp_path):
    """Point disk persistence at a throwaway dir and reset the counters."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    METRICS.reset()
    yield tmp_path
    METRICS.reset()


# --------------------------------------------------------------------- #
# memoization and stats
# --------------------------------------------------------------------- #


def test_memo_hit_after_first_build():
    store = get_store(_dataset())
    a = store.features("app")
    assert _counts() == (0, 0, 1)
    b = store.features("app")
    assert _counts() == (1, 0, 1)
    assert a is b


def test_store_is_attached_to_dataset():
    ds = _dataset()
    assert get_store(ds) is get_store(ds)
    assert get_store(ds) is ds._feature_store


def test_tier_matrix_and_names_match_dataset():
    ds = _dataset()
    store = get_store(ds)
    for name, spec in TIERS.items():
        feats = store.features(name)
        assert np.array_equal(feats, ds.features(**spec.kwargs()))
        names = store.feature_names(name)
        assert names == ds.feature_names(**spec.kwargs())
        assert feats.shape[2] == len(names)
    assert np.array_equal(store.features(LDMS_SPEC), ds.ldms)


def test_aliased_spec_shares_cache_entry():
    # The token comes from the column blocks, not the display name.
    alias = FeatureSpec("my-alias", placement=True)
    assert alias.token == TIERS["app+placement"].token
    store = get_store(_dataset())
    store.features("app+placement")
    misses = _counts()[2]
    store.features(alias)
    assert _counts()[2] == misses  # served from the same memo entry


def test_unknown_tier_raises():
    with pytest.raises(ValueError, match="unknown tier"):
        get_store(_dataset()).features("everything")


def test_clear_feature_caches_drops_memo():
    store = get_store(_dataset())
    store.features("app")
    clear_feature_caches()
    store.features("app")
    # Second build is not a memo hit: disk hit (persisted) or rebuild.
    hits, disk_hits, misses = _counts()
    assert hits == 0
    assert disk_hits + misses == 2


# --------------------------------------------------------------------- #
# disk persistence
# --------------------------------------------------------------------- #


def test_disk_roundtrip_across_objects(_isolated_cache):
    a = _dataset()
    ref = get_store(a).features("app")
    assert _counts() == (0, 0, 1)
    entries = list(_isolated_cache.rglob("tier-app.npz"))
    assert len(entries) == 1

    # A distinct object with identical content hits the disk entry.
    b = _dataset()
    got = get_store(b).features("app")
    assert _counts() == (0, 1, 1)
    assert np.array_equal(got, ref)


def test_content_fingerprint_distinguishes_datasets():
    a, b = _dataset(seed=0), _dataset(seed=1)
    assert FeatureStore(a).fingerprint() == FeatureStore(a).fingerprint()
    assert FeatureStore(a).fingerprint() != FeatureStore(b).fingerprint()


def test_provenance_fingerprint_wins_over_content():
    a, b = _dataset(), _dataset()
    a.campaign_fingerprint = "deadbeef"
    assert FeatureStore(a).fingerprint() != FeatureStore(b).fingerprint()
    c = _dataset(seed=7)  # different content, same provenance stamp
    c.campaign_fingerprint = "deadbeef"
    assert FeatureStore(a).fingerprint() == FeatureStore(c).fingerprint()


def test_corrupt_entry_warns_and_regenerates(_isolated_cache):
    ref = get_store(_dataset()).features("app")
    (entry,) = list(_isolated_cache.rglob("tier-app.npz"))
    entry.write_bytes(b"not a zipfile")

    with pytest.warns(RuntimeWarning, match="corrupt feature cache entry"):
        got = get_store(_dataset()).features("app")
    assert np.array_equal(got, ref)
    assert _counts()[1:] == (0, 2)
    # The regenerated entry is valid again.
    with np.load(entry) as npz:
        assert np.array_equal(npz["x"], ref)


def test_cache_disabled_by_env(monkeypatch, _isolated_cache):
    monkeypatch.setenv("REPRO_FEATURE_CACHE", "0")
    get_store(_dataset()).features("app")
    assert list(_isolated_cache.rglob("*.npz")) == []


def test_unwritable_cache_degrades_to_memo(monkeypatch, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a dir")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "sub"))
    store = get_store(_dataset())
    with pytest.warns(RuntimeWarning, match="cache write failed"):
        a = store.features("app")
    assert np.array_equal(a, store.features("app"))  # memo still serves


# --------------------------------------------------------------------- #
# mean-centering views
# --------------------------------------------------------------------- #


def test_flat_mean_centered_matches_legacy_construction():
    ds = _dataset()
    x, y, offsets = get_store(ds).flat_mean_centered()
    xh, yh = ds.mean_centered()
    n, t, h = xh.shape
    _, ym = ds.mean_trends()
    assert np.array_equal(x, xh.reshape(n * t, h))
    assert np.array_equal(y, yh.reshape(n * t))
    assert np.array_equal(offsets, np.tile(ym, n))


# --------------------------------------------------------------------- #
# windows
# --------------------------------------------------------------------- #


def test_windows_match_build_windows():
    ds = _dataset()
    x, y, g = get_store(ds).windows("app", m=3, k=2)
    x2, y2, g2 = build_windows(ds.features(), ds.Y, m=3, k=2)
    assert np.array_equal(x, x2)
    assert np.array_equal(y, y2)
    assert np.array_equal(g, g2)


def test_windows_align_m_shrinks_sample_count():
    ds = _dataset(t=16)
    xa, ya, _ = get_store(ds).windows("app", m=3, k=2)
    xb, yb, _ = get_store(ds).windows("app", m=3, k=2, align_m=6)
    assert len(xb) < len(xa)
    x2, y2, _ = build_windows(ds.features(), ds.Y, m=3, k=2, align_m=6)
    assert np.array_equal(xb, x2) and np.array_equal(yb, y2)


def test_window_params_validated_before_cache():
    ds = _dataset(t=10)
    store = get_store(ds)
    with pytest.raises(ValueError):
        store.windows("app", m=8, k=4)  # k runs past the end of the run
    with pytest.raises(ValueError):
        store.windows("app", m=4, k=2, align_m=2)  # align_m < m
    with pytest.raises(ValueError):
        store.windows("app", m=0, k=1)
    assert _counts() == (0, 0, 0)  # nothing was built or cached


def test_single_run_dataset_windows():
    ds = _dataset(n=1, t=12)
    x, y, g = get_store(ds).windows("app", m=3, k=2)
    assert len(x) == 12 - 3 - 2 + 1
    assert np.all(g == 0)


def test_channel_windows_targets():
    ds = _dataset(n=3, t=10)
    m, k = 3, 2
    x, y, g = get_store(ds).channel_windows("IO_PT_FLIT_TOT", m=m, k=k)
    names = LDMS_SPEC.feature_names()
    ci = names.index("IO_PT_FLIT_TOT")
    # First sample: run 0, window ends at tc = m-1; target is the channel's
    # next-k sum.
    np.testing.assert_allclose(x[0], ds.ldms[0, :m, :])
    np.testing.assert_allclose(y[0], ds.ldms[0, m : m + k, ci].sum())


def test_channel_windows_unknown_channel():
    with pytest.raises(ValueError, match="unknown channel"):
        get_store(_dataset()).channel_windows("NOT_A_CHANNEL", m=3, k=2)
