"""Campaign generation: dataset shapes, determinism, caching, physics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.registry import get_application
from repro.campaign.datasets import (
    EPOCH,
    LDMS_FEATURES,
    Campaign,
    seconds_to_date,
)
from repro.campaign.runner import (
    CampaignConfig,
    CampaignRunner,
    _long_step_model,
    run_campaign,
)
from repro.features import TIERS
from repro.network.counters import APP_COUNTERS


def test_all_datasets_generated(tiny_campaign):
    keys = set(tiny_campaign.keys())
    assert {
        "AMG-128",
        "AMG-512",
        "MILC-128",
        "MILC-512",
        "miniVite-128",
        "UMT-128",
    } <= keys
    assert "MILC-128-long160" in keys
    for key in (
        "AMG-128",
        "MILC-128",
        "miniVite-128",
        "UMT-128",
    ):
        assert len(tiny_campaign[key]) >= 3


def test_dataset_shapes(tiny_campaign):
    ds = tiny_campaign["MILC-128"]
    n, t = len(ds), ds.num_steps
    assert t == 80
    assert ds.X.shape == (n, t, len(APP_COUNTERS))
    assert ds.Y.shape == (n, t)
    assert ds.ldms.shape == (n, t, len(LDMS_FEATURES))
    assert ds.placement.shape == (n, 2)
    assert (ds.Y > 0).all()
    assert (ds.X >= 0).all()
    assert (ds.ldms >= 0).all()


def test_feature_tensor_tiers(tiny_campaign):
    ds = tiny_campaign["AMG-128"]
    base = ds.features()
    assert base.shape[2] == 13
    placed = ds.features(placement=True)
    assert placed.shape[2] == 15
    # Placement features are constant across steps within a run.
    assert (placed[:, 0, 13] == placed[:, -1, 13]).all()
    full = ds.features(placement=True, io=True, sys=True)
    assert full.shape[2] == 23
    names = TIERS["app+placement+io+sys"].feature_names()
    assert len(names) == 23 and names[-1] == "SYS_PT_PKT_TOT"


def test_mean_centering(tiny_campaign):
    ds = tiny_campaign["MILC-128"]
    xh, yh = ds.mean_centered()
    np.testing.assert_allclose(
        xh.mean(axis=0), 0.0, atol=1e-10 * max(np.abs(ds.X).max(), 1.0)
    )
    np.testing.assert_allclose(yh.mean(axis=0), 0.0, atol=1e-9)


def test_milc_warmup_visible_in_data(tiny_campaign):
    """The paper's Fig. 3 structure survives the pipeline: warmup steps
    are much faster than regular steps."""
    ds = tiny_campaign["MILC-128"]
    _, ym = ds.mean_trends()
    assert ym[:20].mean() < 0.5 * ym[20:].mean()


def test_counter_trends_track_time_trends(tiny_campaign):
    """Fig. 7: mean counter trends correlate with the mean time trend."""
    ds = tiny_campaign["MILC-128"]
    xm, ym = ds.mean_trends()
    flit = xm[:, APP_COUNTERS.index("PT_FLIT_TOT")]
    r = np.corrcoef(flit, ym)[0, 1]
    assert r > 0.8


def test_optimality_and_relative_performance(tiny_campaign):
    ds = tiny_campaign["AMG-128"]
    p = ds.optimality()
    assert p.shape == (len(ds),)
    assert set(np.unique(p)) <= {0, 1}
    rel = ds.relative_performance()
    assert rel.min() == pytest.approx(1.0)
    assert rel.max() >= 1.0


def test_neighborhoods_recorded(tiny_campaign):
    runs = tiny_campaign["AMG-128"].runs
    all_users = {u for r in runs for u in r.neighborhood}
    # Large background jobs exist, so neighbourhoods are non-trivial.
    assert len(all_users) >= 3
    assert all(u.startswith("User-") for u in all_users)


def test_placements_fragmented(tiny_campaign):
    ds = tiny_campaign["AMG-128"]
    app = get_application("AMG-128")
    # NUM_ROUTERS within physical bounds.
    nr = ds.placement[:, 0]
    assert (nr >= np.ceil(app.num_nodes / 4)).all()
    assert (nr <= app.num_nodes).all()
    ng = ds.placement[:, 1]
    assert (ng >= 1).all()


def test_routine_breakdown_recorded(tiny_campaign):
    run = tiny_campaign["UMT-128"].runs[0]
    assert set(run.routine_times) == set(get_application("UMT-128").routine_mix())
    assert sum(run.routine_times.values()) == pytest.approx(
        run.mpi_times.sum(), rel=1e-6
    )


def test_long_run_generated(tiny_campaign):
    ds = tiny_campaign["MILC-128-long160"]
    assert len(ds) == 1
    assert ds.num_steps == 160
    # Long run keeps the warmup prefix then stays in the regular regime.
    y = ds.runs[0].step_times
    assert y[:20].mean() < y[20:].mean()


def test_long_step_model_tiling():
    app = get_application("MILC-128")
    sm = _long_step_model(app, 620)
    assert sm.num_steps == 620
    assert sm.mpi[0] == app.step_model().mpi[0]
    # Truncation path.
    sm10 = _long_step_model(app, 10)
    assert sm10.num_steps == 10


def test_dates(tiny_campaign):
    run = tiny_campaign["AMG-128"].runs[0]
    assert run.date >= EPOCH
    assert seconds_to_date(0.0) == EPOCH


def test_determinism():
    cfg = CampaignConfig.tiny(use_cache=False, days=2.0, long_runs=())
    a = CampaignRunner(cfg).run()
    b = CampaignRunner(cfg).run()
    for key in a.keys():
        if len(a[key]) == 0:
            continue
        np.testing.assert_array_equal(a[key].Y, b[key].Y)
        np.testing.assert_array_equal(a[key].X, b[key].X)


def test_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cfg = CampaignConfig.tiny(days=2.0, long_runs=(), use_cache=True)
    first = run_campaign(cfg)
    # Second call loads from disk.
    second = run_campaign(cfg)
    for key in first.keys():
        np.testing.assert_allclose(first[key].Y, second[key].Y)
        np.testing.assert_allclose(first[key].ldms, second[key].ldms)
        assert [r.neighborhood for r in first[key].runs] == [
            r.neighborhood for r in second[key].runs
        ]
    assert second.ground_truth_aggressors == first.ground_truth_aggressors
    assert Campaign.load("not-a-fingerprint") is None


def test_fingerprint_sensitivity():
    a = CampaignConfig.tiny()
    b = CampaignConfig.tiny(days=7.0)
    c = CampaignConfig.tiny(background_intensity=2.0)
    assert a.fingerprint() == CampaignConfig.tiny().fingerprint()
    assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3


@pytest.mark.parametrize(
    "field, value",
    [
        ("days", 0.0),
        ("days", -1.0),
        ("days", float("nan")),
        ("background_intensity", -0.5),
        ("target_utilization", 0.0),
        ("target_utilization", 1.0),
        ("target_utilization", 1.5),
        ("probes_per_day", (2, 1)),
        ("probes_per_day", (0, 0)),
        ("probes_per_day", (-1, 1)),
    ],
)
def test_bad_config_rejected_at_construction(field, value):
    """Each bad value fails when the config is built, naming the field,
    not deep in generation after its fingerprint already exists."""
    with pytest.raises(ValueError, match=field):
        CampaignConfig.tiny(**{field: value})


def test_edge_configs_accepted():
    CampaignConfig.tiny(days=0.5, background_intensity=0.0)
    CampaignConfig.tiny(probes_per_day=(0, 1), target_utilization=0.99)


def test_variability_emerges(tiny_campaign):
    """Run-to-run variability exists and differs from pure noise: the
    worst run is measurably slower than the best."""
    spreads = {}
    for key in ("AMG-128", "MILC-128", "miniVite-128"):
        ds = tiny_campaign[key]
        if len(ds) >= 3:
            spreads[key] = ds.relative_performance().max()
    assert spreads and max(spreads.values()) > 1.1


def test_ground_truth_recorded(tiny_campaign):
    assert "User-2" in tiny_campaign.ground_truth_aggressors
