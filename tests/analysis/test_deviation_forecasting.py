"""Deviation prediction and forecasting pipelines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.deviation import deviation_analysis
from repro.analysis.forecasting import (
    TIERS,
    build_windows,
    fit_forecaster,
    forecast_mape,
    long_run_forecast,
    model_importances,
)
from repro.campaign.datasets import RunDataset, RunRecord
from repro.ml.attention import AttentionForecaster
from repro.ml.gbr import GradientBoostedRegressor
from repro.network.counters import APP_COUNTERS


def _fast_gbr():
    return GradientBoostedRegressor(n_estimators=20, max_depth=2, random_state=0)


def _fast_model(seed=0):
    return AttentionForecaster(
        d_model=8, hidden=16, epochs=60, batch_size=64, seed=seed
    )


def _synthetic_dataset(n=30, t=24, signal_counter="RT_RB_STL", seed=0):
    """A dataset whose per-step deviations are driven by one counter.

    The counter carries an autocorrelated 'congestion' signal so that
    forecasting future steps from past counters is possible.
    """
    rng = np.random.default_rng(seed)
    ci = APP_COUNTERS.index(signal_counter)
    runs = []
    trend = 10.0 + np.sin(np.arange(t) / 4.0)
    for i in range(n):
        # Slowly varying congestion level per run.
        level = np.cumsum(rng.normal(0, 0.15, size=t)) + rng.uniform(0, 2)
        level = np.clip(level, 0, None)
        counters = rng.lognormal(0, 0.05, size=(t, 13)) * 1e9
        counters[:, ci] = (1.0 + level) * 1e9
        y = trend * (1.0 + 0.4 * level) * rng.lognormal(0, 0.01, size=t)
        runs.append(
            RunRecord(
                run_index=i,
                start_time=float(i) * 1e4,
                step_times=y,
                compute_times=y * 0.2,
                mpi_times=y * 0.8,
                counters=counters,
                ldms=rng.lognormal(0, 0.05, size=(t, 8)) * 1e10,
                num_routers=32 + int(rng.integers(0, 20)),
                num_groups=2 + int(rng.integers(0, 4)),
                neighborhood=[],
                routine_times={"Wait": float(y.sum() * 0.8)},
            )
        )
    return RunDataset(key="SYN-128", runs=runs)


# --------------------------------------------------------------------- #
# deviation
# --------------------------------------------------------------------- #


def test_deviation_analysis_finds_signal_counter():
    ds = _synthetic_dataset()
    res = deviation_analysis(
        ds, n_splits=4, estimator_factory=_fast_gbr, max_samples=500
    )
    assert res.key == "SYN-128"
    scores = res.scores_by_counter()
    assert scores["RT_RB_STL"] >= 0.75
    assert "RT_RB_STL" in res.top_counters(3)


def test_deviation_mape_below_paper_threshold():
    """Paper §V-B: prediction MAPE < 5% for all datasets."""
    ds = _synthetic_dataset()
    res = deviation_analysis(ds, n_splits=5, max_samples=600)
    assert res.prediction_mape < 5.0


def test_deviation_analysis_requires_enough_runs():
    ds = _synthetic_dataset(n=3)
    with pytest.raises(ValueError):
        deviation_analysis(ds, n_splits=10)


# --------------------------------------------------------------------- #
# windows
# --------------------------------------------------------------------- #


def test_build_windows_shapes_and_targets():
    n, t, h = 4, 10, 3
    feats = np.arange(n * t * h, dtype=float).reshape(n, t, h)
    y = np.tile(np.arange(t, dtype=float), (n, 1))
    x, targets, groups = build_windows(feats, y, m=3, k=2)
    n_windows = t - 3 - 2 + 1  # tc from m-1=2 to t-k-1=7
    assert x.shape == (n * n_windows, 3, h)
    assert targets.shape == (n * n_windows,)
    assert groups.shape == (n * n_windows,)
    # First block is tc=2 for every run: target = y[3] + y[4] = 7.
    np.testing.assert_allclose(targets[:n], 7.0)
    # Window content: steps tc-m+1..tc = 0..2 of each run.
    np.testing.assert_allclose(x[0], feats[0, 0:3, :])


def test_build_windows_validation():
    feats = np.zeros((2, 10, 3))
    y = np.zeros((2, 10))
    with pytest.raises(ValueError):
        build_windows(feats, y, m=0, k=1)
    with pytest.raises(ValueError):
        build_windows(feats, y, m=8, k=4)


# --------------------------------------------------------------------- #
# forecasting
# --------------------------------------------------------------------- #


def test_forecast_mape_reasonable_on_learnable_data():
    ds = _synthetic_dataset(n=24, t=24)
    res = forecast_mape(ds, m=4, k=4, tier="app", n_splits=3, model_factory=_fast_model)
    assert res.key == "SYN-128"
    assert res.m == 4 and res.k == 4
    assert len(res.per_fold) == 3
    # Autocorrelated congestion => much better than the worst possible.
    assert res.mape < 40.0


def test_forecast_tier_feature_counts():
    ds = _synthetic_dataset(n=12, t=16)
    widths = {
        "app": 13, "app+placement": 15, "app+placement+io": 19,
        "app+placement+io+sys": 23,
    }
    for tier, spec in TIERS.items():
        feats = spec.matrix(ds)
        assert feats.shape[2] == len(spec.feature_names()) == widths[tier]


def test_forecast_unknown_tier():
    ds = _synthetic_dataset(n=8, t=12)
    with pytest.raises(ValueError):
        forecast_mape(ds, 3, 2, tier="everything")


def test_forecasting_importances_highlight_signal():
    ds = _synthetic_dataset(n=30, t=24)
    model = fit_forecaster(ds, m=4, k=4, tier="app", model_factory=_fast_model)
    names, imp = model_importances(model, ds, m=4, k=4, tier="app")
    assert len(names) == len(imp) == 13
    assert imp.sum() == pytest.approx(1.0)
    # The driving counter should rank in the top few.
    rank = list(np.argsort(-imp))
    assert rank.index(APP_COUNTERS.index("RT_RB_STL")) < 5


def test_long_run_forecast():
    train = _synthetic_dataset(n=24, t=24)
    long = _synthetic_dataset(n=1, t=120, seed=99).runs[0]
    res = long_run_forecast(
        train, long, m=6, k=12, tier="app", model_factory=_fast_model
    )
    n_seg = len(res.segment_starts)
    assert n_seg == len(res.observed) == len(res.predicted)
    assert n_seg >= 5
    # Segments tile the run after the first m steps.
    assert res.segment_starts[0] == 6
    assert np.all(np.diff(res.segment_starts) == 12)
    # Predictions are in the right ballpark (same units, same scale).
    assert res.mape < 60.0
    assert res.observed.min() > 0
