"""The Estimator protocol and the instrumented Pipeline wrapper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.attention import AttentionForecaster
from repro.ml.gbr import GradientBoostedRegressor
from repro.ml.pipeline import Estimator, Pipeline
from repro.obs import METRICS


def _rows(n=60, h=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, h))
    y = x[:, 0] + 0.1 * rng.normal(size=n)
    return x, y


def test_pipeline_equals_manual_composition():
    """A pipeline predicts exactly what its bare estimator does, and
    counts the fit."""
    x, y = _rows()
    fits = METRICS.counter("ml.pipeline.fits")
    before = fits.value
    pipe = Pipeline(GradientBoostedRegressor(n_estimators=8, random_state=0))
    assert pipe.fit(x, y) is pipe
    assert fits.value == before + 1
    bare = GradientBoostedRegressor(n_estimators=8, random_state=0).fit(x, y)
    np.testing.assert_array_equal(pipe.predict(x), bare.predict(x))
    np.testing.assert_array_equal(
        pipe.feature_importances_, bare.feature_importances_
    )


def test_pipeline_without_importances_raises():
    class NoImportances:
        def fit(self, x, y):
            return self

        def predict(self, x):
            return np.zeros(len(x))

    x, y = _rows()
    pipe = Pipeline(NoImportances()).fit(x, y)
    with pytest.raises(AttributeError, match="NoImportances"):
        pipe.feature_importances_


def test_protocol_runtime_checks():
    assert isinstance(Pipeline(GradientBoostedRegressor()), Estimator)
    assert isinstance(GradientBoostedRegressor(), Estimator)
    assert isinstance(AttentionForecaster(), Estimator)
    assert not isinstance(object(), Estimator)


# --------------------------------------------------------------------- #
# Pre-binned passthrough
# --------------------------------------------------------------------- #


def test_supports_binned_only_for_stepless_binned_estimator():
    assert Pipeline(GradientBoostedRegressor(n_estimators=5)).supports_binned
    assert not Pipeline(AttentionForecaster()).supports_binned


def test_binned_passthrough_matches_plain_fit():
    from repro.ml.tree import Binner

    rng = np.random.default_rng(11)
    x = rng.normal(size=(150, 4))
    y = x[:, 0] + 0.1 * rng.normal(size=150)
    plain = Pipeline(GradientBoostedRegressor(n_estimators=8, random_state=1))
    plain.fit(x, y)
    binner = Binner(64).fit(x)
    via = Pipeline(GradientBoostedRegressor(n_estimators=8, random_state=1))
    via.fit_binned(binner.transform(x), y, binner)
    np.testing.assert_array_equal(
        plain.predict(x), via.predict_binned(binner.transform(x))
    )
