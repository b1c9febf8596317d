"""Common Estimator protocol and composable pipelines.

Every model in :mod:`repro.ml` exposes the same minimal surface —
``fit(x, y) -> self``, ``predict(x) -> np.ndarray``, and (for the tree
ensembles and ridge) ``feature_importances_``.  This module names that
surface (:class:`Estimator`) and adds the composition pieces the
analysis stack needs so GBR, ridge, forest, and the attention forecaster
are interchangeable in RFE, the baseline comparisons, and forecasting:

* :class:`WindowFlattener` — (n, m, H) window tensors -> (n, m*H) rows,
  so flat regressors consume the same windows the attention model does
  (this replaces the ad-hoc per-model flattening wrappers);
* :class:`ScalerStep` — standardisation as a pipeline step;
* :class:`Pipeline` — steps -> estimator, with importances folded back
  through the steps (a flattened window's m*H importances aggregate to
  per-channel scores);
* :func:`make_forecaster` — the registry of window forecasters.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.ml.scaling import StandardScaler
from repro.obs import METRICS, span


@runtime_checkable
class Estimator(Protocol):
    """What RFE, the baselines, and the forecasting drivers require."""

    def fit(self, x: np.ndarray, y: np.ndarray) -> "Estimator": ...

    def predict(self, x: np.ndarray) -> np.ndarray: ...


@runtime_checkable
class Transform(Protocol):
    """A fittable, re-applicable array transform (pipeline step)."""

    def fit(self, x: np.ndarray, y: np.ndarray | None = None) -> "Transform": ...

    def transform(self, x: np.ndarray) -> np.ndarray: ...


class WindowFlattener:
    """(n, m, H) window tensors -> (n, m*H) flat rows.

    ``fold_importances`` maps the estimator's m*H importances back to H
    per-channel scores by summing over the temporal axis.
    """

    def __init__(self) -> None:
        self.m_: int | None = None
        self.h_: int | None = None

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ValueError("x must be (n, m, H) windows")
        return x

    def fit(self, x: np.ndarray, y: np.ndarray | None = None) -> "WindowFlattener":
        x = self._check(x)
        self.m_, self.h_ = x.shape[1], x.shape[2]
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = self._check(x)
        return x.reshape(len(x), -1)

    def fold_importances(self, imp: np.ndarray) -> np.ndarray:
        if self.m_ is None or self.h_ is None:
            raise RuntimeError("flattener is not fitted")
        return np.asarray(imp).reshape(self.m_, self.h_).sum(axis=0)


class ScalerStep:
    """Zero-mean / unit-variance scaling as a pipeline step (2-D rows)."""

    def __init__(self) -> None:
        self._scaler: StandardScaler | None = None

    def fit(self, x: np.ndarray, y: np.ndarray | None = None) -> "ScalerStep":
        self._scaler = StandardScaler().fit(np.asarray(x, dtype=np.float64))
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self._scaler is None:
            raise RuntimeError("scaler step is not fitted")
        return self._scaler.transform(np.asarray(x, dtype=np.float64))


class Pipeline:
    """Transforms feeding an estimator, presenting the Estimator surface.

    ``feature_importances_`` delegates to the estimator and folds the
    result back through any step that defines ``fold_importances`` (in
    reverse order), so a windowed GBR reports per-channel importances.
    """

    def __init__(self, steps: Sequence[Transform], estimator: Estimator) -> None:
        self.steps = list(steps)
        self.estimator = estimator

    def fit(self, x: np.ndarray, y: np.ndarray) -> "Pipeline":
        est_name = type(self.estimator).__name__
        with span("ml.pipeline.fit", estimator=est_name, n=len(x)):
            for step in self.steps:
                with span("ml.step.fit", step=type(step).__name__):
                    x = step.fit(x, y).transform(x)
            with span("ml.estimator.fit", estimator=est_name, n=len(x)):
                self.estimator.fit(x, y)
            METRICS.counter("ml.pipeline.fits").inc()
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        est_name = type(self.estimator).__name__
        with span("ml.pipeline.predict", estimator=est_name, n=len(x)):
            for step in self.steps:
                with span("ml.step.predict", step=type(step).__name__):
                    x = step.transform(x)
            with span("ml.estimator.predict", estimator=est_name):
                return self.estimator.predict(x)

    # -- pre-binned fast path (RFE subset fits) ------------------------- #

    @property
    def supports_binned(self) -> bool:
        """Can this pipeline fit/predict from pre-binned codes?

        Only a *stepless* pipeline can: codes are not a transformable
        feature space, so any step would be bypassed silently.
        """
        return not self.steps and hasattr(self.estimator, "fit_binned")

    def fit_binned(self, binned: np.ndarray, y: np.ndarray, binner) -> "Pipeline":
        """Delegate a pre-binned fit to the estimator (stepless only).

        Emits the same span/counter as :meth:`fit`, so observability
        counts every model fit no matter which door it came through.
        """
        if not self.supports_binned:
            raise RuntimeError(
                "fit_binned requires a stepless pipeline around a "
                "binned-capable estimator"
            )
        est_name = type(self.estimator).__name__
        with span("ml.pipeline.fit", estimator=est_name, n=len(binned), binned=True):
            self.estimator.fit_binned(binned, y, binner)
            METRICS.counter("ml.pipeline.fits").inc()
        return self

    def predict_binned(self, binned: np.ndarray) -> np.ndarray:
        if not self.supports_binned:
            raise RuntimeError(
                "predict_binned requires a stepless pipeline around a "
                "binned-capable estimator"
            )
        est_name = type(self.estimator).__name__
        with span("ml.pipeline.predict", estimator=est_name, n=len(binned), binned=True):
            return self.estimator.predict_binned(binned)

    @property
    def feature_importances_(self) -> np.ndarray:
        imp = getattr(self.estimator, "feature_importances_", None)
        if imp is None:
            raise AttributeError(
                f"{type(self.estimator).__name__} exposes no feature_importances_"
            )
        for step in reversed(self.steps):
            fold = getattr(step, "fold_importances", None)
            if fold is not None:
                imp = fold(imp)
        return imp


class MeanTargetForecaster:
    """Predict the training-mean target — the weakest sane baseline."""

    def __init__(self) -> None:
        self._mean: float = 0.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "MeanTargetForecaster":
        self._mean = float(np.asarray(y, dtype=np.float64).mean())
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.full(len(x), self._mean)


def make_forecaster(name: str, seed: int = 0, **kwargs) -> Estimator:
    """A window forecaster by name, all consuming (n, m, H) tensors.

    ``attention`` — the paper's scalar dot-product attention model;
    ``gbr`` / ``forest`` / ``ridge`` — flat regressors behind a
    :class:`WindowFlattener`; ``mean-target`` — the no-learning floor.
    Extra ``kwargs`` reach the underlying model's constructor.
    """
    if name == "attention":
        from repro.ml.attention import AttentionForecaster

        return AttentionForecaster(seed=seed, **kwargs)
    if name == "gbr":
        from repro.ml.gbr import GradientBoostedRegressor

        params = dict(n_estimators=120, max_depth=3, learning_rate=0.08)
        params.update(kwargs)
        return Pipeline(
            [WindowFlattener()],
            GradientBoostedRegressor(random_state=seed, **params),
        )
    if name == "forest":
        from repro.ml.forest import RandomForestRegressor

        return Pipeline(
            [WindowFlattener()], RandomForestRegressor(random_state=seed, **kwargs)
        )
    if name == "ridge":
        from repro.ml.linear import RidgeRegressor

        return Pipeline(
            [WindowFlattener()], RidgeRegressor(alpha=kwargs.pop("alpha", 10.0))
        )
    if name == "mean-target":
        return MeanTargetForecaster()
    raise ValueError(
        f"unknown forecaster {name!r}; expected one of "
        "['attention', 'gbr', 'forest', 'ridge', 'mean-target']"
    )


# Rolling-window retraining over streamed shards lives in
# :mod:`repro.ml.drift`; re-exported here because the drift report is
# the pipeline-level product of the streaming facility mode.
from repro.ml.drift import (  # noqa: E402
    DriftReport,
    WindowDrift,
    drift_report,
    rolling_drift,
    score_on_shard,
)
