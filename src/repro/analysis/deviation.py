"""Deviation prediction: which counters explain variability (§IV-B, §V-B).

Each time step of each run is one sample.  Both the counters and the
execution times are mean-centered per step index (removing the Fig. 3 /
Fig. 7 mean trends), and a GBR model predicts the *deviation*; RFE with
10-fold CV scores each counter's relevance (Fig. 9).  The paper reports
the prediction MAPE (< 5% on all datasets) on the reconstructed times.

The flattened mean-centered views come from the dataset's
:class:`~repro.features.FeatureStore`, so repeated analyses (Fig. 9,
benchmarks) share one construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.datasets import RunDataset
from repro.features import get_store
from repro.ml.gbr import GradientBoostedRegressor
from repro.ml.pipeline import Pipeline
from repro.ml.rfe import RelevanceResult, relevance_scores
from repro.network.counters import APP_COUNTERS
from repro.obs import span


@dataclass
class DeviationAnalysis:
    """RFE relevance of each counter for one dataset (one Fig. 9 row)."""

    key: str
    relevance: RelevanceResult

    @property
    def prediction_mape(self) -> float:
        return self.relevance.prediction_mape

    def scores_by_counter(self) -> dict[str, float]:
        return dict(zip(self.relevance.feature_names, self.relevance.scores))

    def top_counters(self, k: int = 3) -> list[str]:
        return self.relevance.top_features(k)


def default_deviation_estimator() -> Pipeline:
    # A Pipeline is numerically the bare GBR; it adds the ml.pipeline.*
    # spans/counters that make every deviation fit observable.
    return Pipeline(
        GradientBoostedRegressor(
            n_estimators=60, max_depth=3, learning_rate=0.1, random_state=0
        )
    )


def deviation_analysis(
    ds: RunDataset,
    n_splits: int = 10,
    seed: int = 0,
    max_samples: int | None = 3000,
    estimator_factory=default_deviation_estimator,
) -> DeviationAnalysis:
    """Run the §IV-B pipeline on one dataset.

    Returns per-counter relevance scores plus the CV prediction MAPE on
    reconstructed step times (paper target: < 5%).  The RFE CV folds fan
    out over :mod:`repro.parallel` (``REPRO_WORKERS``; bit-identical
    results for any count).
    """
    if len(ds) < n_splits:
        raise ValueError(
            f"dataset {ds.key} has {len(ds)} runs; need >= {n_splits} for CV"
        )
    with span("analysis.deviation", dataset=ds.key, splits=n_splits):
        x, y, offsets = get_store(ds).flat_mean_centered()
        relevance = relevance_scores(
            x,
            y,
            APP_COUNTERS,
            estimator_factory=estimator_factory,
            n_splits=n_splits,
            seed=seed,
            mape_offset=offsets,
            max_samples=max_samples,
        )
    return DeviationAnalysis(key=ds.key, relevance=relevance)
