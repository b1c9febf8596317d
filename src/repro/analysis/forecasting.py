"""Forecasting execution time of future steps (§IV-C, §V-C).

The sliding-window formulation of the paper's Fig. 6: from the features of
the last ``m`` steps, predict the *sum* of the execution times of the next
``k`` steps.  Models are scored with MAPE under grouped cross-validation
(whole runs held out, since steps within a run are correlated).

Feature tiers reproduce the §V-C ablation (see
:data:`repro.features.TIERS`); every function here accepts either a tier
name or a :class:`~repro.features.FeatureSpec`, and obtains matrices,
names, and window tensors from the dataset's
:class:`~repro.features.FeatureStore` — one spec object guarantees the
features and their labels can never drift, and warm invocations reuse
the memoized tensors instead of rebuilding them per figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.campaign.datasets import RunDataset, RunRecord
from repro.features import TIERS, FeatureSpec, build_windows, get_store
from repro.ml.attention import AttentionForecaster, permutation_importance
from repro.ml.metrics import mape
from repro.ml.model_selection import GroupKFold
from repro.obs import span

__all__ = [
    "TIERS",
    "build_windows",
    "ForecastResult",
    "LongRunForecast",
    "default_forecaster",
    "forecast_mape",
    "fit_forecaster",
    "model_importances",
    "segment_forecast",
    "long_run_forecast",
]


def default_forecaster(seed: int = 0) -> AttentionForecaster:
    return AttentionForecaster(
        d_model=24, hidden=48, lr=3e-3, epochs=220, batch_size=128, seed=seed
    )


@dataclass
class ForecastResult:
    """One cell of the Fig. 8 / Fig. 10 ablation grids."""

    key: str
    m: int
    k: int
    tier: str
    mape: float
    per_fold: list[float] = field(default_factory=list)


def _score_windows(
    key: str,
    m: int,
    k: int,
    tier_name: str,
    x: np.ndarray,
    y: np.ndarray,
    groups: np.ndarray,
    n_splits: int,
    seed: int,
    model_factory,
) -> ForecastResult:
    """Score one (m, k, tier) cell's window tensors under grouped CV.

    A cell's result is a pure function of its arguments: the window
    tensors come from the dataset's memoized FeatureStore, and each fold
    seeds its model from ``seed + fold``.
    """
    with span(
        "analysis.forecast", dataset=key, m=m, k=k, tier=tier_name,
        splits=n_splits,
    ):
        gkf = GroupKFold(n_splits=n_splits, seed=seed)
        per_fold = []
        for fold, (train, test) in enumerate(gkf.split(groups)):
            with span("analysis.forecast.fold", fold=fold):
                model = model_factory(seed + fold)
                model.fit(x[train], y[train])
                per_fold.append(mape(y[test], model.predict(x[test])))
    return ForecastResult(
        key=key,
        m=m,
        k=k,
        tier=tier_name,
        mape=float(np.mean(per_fold)),
        per_fold=per_fold,
    )


def forecast_mape(
    ds: RunDataset,
    m: int,
    k: int,
    tier: "str | FeatureSpec" = "app",
    n_splits: int = 3,
    seed: int = 0,
    model_factory=default_forecaster,
    align_m: int | None = None,
) -> ForecastResult:
    """Grouped-CV MAPE of the forecaster on one (m, k, tier) cell."""
    spec = FeatureSpec.resolve(tier)
    x, y, groups = get_store(ds).windows(spec, m, k, align_m=align_m)
    return _score_windows(
        ds.key, m, k, spec.name, x, y, groups, n_splits, seed, model_factory
    )


def fit_forecaster(
    ds: RunDataset,
    m: int,
    k: int,
    tier: "str | FeatureSpec",
    seed: int = 0,
    model_factory=default_forecaster,
):
    """Train one forecaster on all of a dataset's (m, k, tier) windows.

    This is the trained-model product the importance panels (Fig. 11)
    and the long-run forecast (Fig. 12) both consume — as a graph stage
    it is fitted once and shared.  The model holds plain numpy state, so
    it pickles cleanly into the artifact store.
    """
    spec = FeatureSpec.resolve(tier)
    with span(
        "analysis.fit_forecaster", dataset=ds.key, m=m, k=k, tier=spec.name
    ):
        x, y, _ = get_store(ds).windows(spec, m, k)
        model = model_factory(seed)
        model.fit(x, y)
    return model


def model_importances(
    model,
    ds: RunDataset,
    m: int,
    k: int,
    tier: "str | FeatureSpec",
    seed: int = 0,
) -> tuple[list[str], np.ndarray]:
    """Permutation importances of a trained forecaster on its windows."""
    spec = FeatureSpec.resolve(tier)
    store = get_store(ds)
    names = store.feature_names(spec)
    with span(
        "analysis.importances", dataset=ds.key, m=m, k=k, tier=spec.name
    ):
        x, y, _ = store.windows(spec, m, k)
        imp = permutation_importance(
            model, x, y, metric=mape, rng=np.random.default_rng(seed)
        )
    s = imp.sum()
    return names, imp / s if s > 0 else imp


@dataclass
class LongRunForecast:
    """Fig. 12: observed vs predicted segment times of a long run."""

    key: str
    segment_steps: int
    #: Step index at which each predicted segment starts.
    segment_starts: np.ndarray
    observed: np.ndarray
    predicted: np.ndarray

    @property
    def mape(self) -> float:
        return mape(self.observed, self.predicted)


def segment_forecast(
    model,
    train_key: str,
    long_run: RunRecord,
    m: int = 30,
    k: int = 40,
    tier: "str | FeatureSpec" = "app+placement+io+sys",
) -> LongRunForecast:
    """Forecast an unseen long run in ``k``-step segments with a trained
    model (the prediction half of :func:`long_run_forecast`)."""
    spec = FeatureSpec.resolve(tier)
    with span(
        "analysis.long_run_forecast", dataset=train_key, m=m, k=k,
        tier=spec.name,
    ):
        # Long-run features in the same tier layout (one-off view; the
        # spec guarantees the same column order as the training windows).
        holder = RunDataset(key="long", runs=[long_run])
        lf = spec.matrix(holder)[0]  # (T, H)
        ly = long_run.step_times
        t = len(ly)
        starts = np.arange(m, t - k + 1, k)
        windows = np.stack([lf[s - m : s, :] for s in starts])
        observed = np.array([ly[s : s + k].sum() for s in starts])
        predicted = model.predict(windows)
    return LongRunForecast(
        key=train_key,
        segment_steps=k,
        segment_starts=starts,
        observed=observed,
        predicted=predicted,
    )


def long_run_forecast(
    train_ds: RunDataset,
    long_run: RunRecord,
    m: int = 30,
    k: int = 40,
    tier: "str | FeatureSpec" = "app+placement+io+sys",
    seed: int = 0,
    model_factory=default_forecaster,
) -> LongRunForecast:
    """Train on the regular dataset, forecast an unseen long run (§V-C).

    The long run is divided into ``k``-step segments; each segment's
    aggregate time is predicted from the preceding ``m`` steps' features.
    No data from the long run enters training (paper: "no data from this
    run was included in training the model").
    """
    model = fit_forecaster(
        train_ds, m, k, tier, seed=seed, model_factory=model_factory
    )
    return segment_forecast(model, train_ds.key, long_run, m=m, k=k, tier=tier)
