"""The refactor changed plumbing, not numbers.

Each test reconstructs a pre-refactor code path inline (direct
``ds.features`` / ``build_windows`` / mean-centering calls, the same CV
loops) and checks the store-served analyses produce byte-identical
arrays and scores on the shared tiny campaign.  The final test asserts
the warm-run acceptance criterion: a second fig09–fig12 pass performs
zero feature builds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.deviation import deviation_analysis
from repro.analysis.forecasting import forecast_mape
from repro.features import TIERS, build_windows, get_store
from repro.ml.gbr import GradientBoostedRegressor
from repro.ml.metrics import mape
from repro.ml.model_selection import GroupKFold
from repro.ml.pipeline import make_forecaster
from repro.ml.rfe import relevance_scores
from repro.network.counters import APP_COUNTERS
from tests.features.test_store import _counts


def _fast_gbr():
    return GradientBoostedRegressor(n_estimators=8, max_depth=2, random_state=0)


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    yield


@pytest.fixture()
def milc(tiny_campaign):
    return tiny_campaign["MILC-128"]


def test_store_views_byte_identical_to_legacy(milc):
    store = get_store(milc)
    for name, spec in TIERS.items():
        a = store.features(name)
        b = milc.features(**spec.kwargs())
        assert a.tobytes() == b.tobytes(), name

    m, k = 4, 3
    x, y, g = store.windows("app+placement", m, k)
    x2, y2, g2 = build_windows(milc.features(placement=True), milc.Y, m, k)
    assert x.tobytes() == x2.tobytes()
    assert y.tobytes() == y2.tobytes()
    assert g.tobytes() == g2.tobytes()

    fx, fy, fo = store.flat_mean_centered()
    xh, yh = milc.mean_centered()
    n, t, h = xh.shape
    _, ym = milc.mean_trends()
    assert fx.tobytes() == xh.reshape(n * t, h).tobytes()
    assert fy.tobytes() == yh.reshape(n * t).tobytes()
    assert fo.tobytes() == np.tile(ym, n).tobytes()


def test_fig09_path_matches_legacy_inline(milc):
    """deviation_analysis == the pre-refactor flatten + relevance_scores."""
    kwargs = dict(n_splits=4, seed=0, max_samples=300)
    res = deviation_analysis(milc, estimator_factory=_fast_gbr, **kwargs)

    xh, yh = milc.mean_centered()
    n, t, h = xh.shape
    _, ym = milc.mean_trends()
    legacy = relevance_scores(
        xh.reshape(n * t, h),
        yh.reshape(n * t),
        APP_COUNTERS,
        estimator_factory=_fast_gbr,
        n_splits=kwargs["n_splits"],
        seed=kwargs["seed"],
        mape_offset=np.tile(ym, n),
        max_samples=kwargs["max_samples"],
    )
    np.testing.assert_array_equal(res.relevance.scores, legacy.scores)
    assert res.prediction_mape == legacy.prediction_mape


def test_fig10_path_matches_legacy_inline(milc):
    """forecast_mape == the pre-refactor windows + grouped-CV loop."""
    m, k, n_splits, seed = 4, 3, 2, 0

    def ridge(fold_seed):
        return make_forecaster("ridge")

    res = forecast_mape(
        milc, m, k, tier="app+placement", n_splits=n_splits, seed=seed,
        model_factory=ridge,
    )

    x, y, groups = build_windows(milc.features(placement=True), milc.Y, m, k)
    per_fold = []
    for fold, (train, test) in enumerate(
        GroupKFold(n_splits=n_splits, seed=seed).split(groups)
    ):
        model = ridge(seed + fold)
        model.fit(x[train], y[train])
        per_fold.append(mape(y[test], model.predict(x[test])))
    assert res.per_fold == per_fold
    assert res.mape == float(np.mean(per_fold))


def test_warm_experiment_pass_rebuilds_nothing(tiny_campaign, monkeypatch):
    """Acceptance: a warm second fig09–fig12 pass does zero feature builds."""
    from repro.experiments import (
        _forecast_common,
        fig09_relevance,
        fig10_forecast_milc,
        fig11_importances,
        fig12_longrun,
    )

    # A cheap deterministic stand-in for the attention forecaster; stage
    # bodies resolve the factory from _forecast_common at call time, so
    # one patch covers every figure.
    def cheap(seed=0):
        return make_forecaster("ridge")

    monkeypatch.setattr(_forecast_common, "fast_forecaster", cheap)

    # Shrink fig09's RFE sweep the same way — the estimator's size has no
    # bearing on the cache accounting under test.
    from repro.analysis import deviation

    real_deviation_analysis = deviation.deviation_analysis
    monkeypatch.setattr(
        deviation,
        "deviation_analysis",
        lambda ds, **kw: real_deviation_analysis(
            ds, estimator_factory=_fast_gbr, **kw
        ),
    )

    figs = (fig09_relevance, fig10_forecast_milc, fig11_importances, fig12_longrun)
    for fig in figs:
        fig.run(campaign=tiny_campaign, fast=True)
    cold = _counts()

    for fig in figs:
        fig.run(campaign=tiny_campaign, fast=True)
    warm = _counts()

    assert warm[2] == cold[2], "warm pass recomputed features"
    assert warm[1] == cold[1], "warm pass went back to disk"
    assert warm[0] > cold[0]  # everything was served from the memo
