"""From-scratch ML substrate (no sklearn/torch in the environment).

Implements exactly what the paper's pipelines need:

* :mod:`~repro.ml.tree` / :mod:`~repro.ml.gbr` — histogram decision trees
  and gradient boosted regression (Friedman 2001), used by the deviation
  models (§IV-B);
* :mod:`~repro.ml.rfe` — recursive feature elimination with cross-
  validated relevance scores (Fig. 9);
* :mod:`~repro.ml.mi` — mutual information for the neighbourhood analysis
  (§IV-A, Table III);
* :mod:`~repro.ml.attention` — the scalar dot-product attention + MLP
  forecaster (§IV-C, Vaswani et al. 2017), trained with Adam
  (:mod:`~repro.ml.nn`);
* :mod:`~repro.ml.drift` — rolling-retrain drift scoring over streamed
  shards;
* :mod:`~repro.ml.pipeline` — the :class:`Estimator` protocol every
  model satisfies, and the :class:`Pipeline` wrapper that gives the
  deviation fits their spans and counters;
* metrics, scalers and CV splitters.
"""

from repro.ml.attention import AttentionForecaster
from repro.ml.drift import (
    DriftReport,
    WindowDrift,
    drift_report,
    rolling_drift,
    score_on_shard,
)
from repro.ml.gbr import GradientBoostedRegressor
from repro.ml.metrics import mape, r2_score, rmse
from repro.ml.mi import mutual_information_binary, mutual_information_discrete
from repro.ml.model_selection import GroupKFold, KFold
from repro.ml.pipeline import Estimator, Pipeline
from repro.ml.rfe import RFE, relevance_scores
from repro.ml.scaling import StandardScaler
from repro.ml.tree import DecisionTreeRegressor

__all__ = [
    "AttentionForecaster",
    "GradientBoostedRegressor",
    "DecisionTreeRegressor",
    "Estimator",
    "Pipeline",
    "DriftReport",
    "WindowDrift",
    "drift_report",
    "rolling_drift",
    "score_on_shard",
    "RFE",
    "relevance_scores",
    "mutual_information_binary",
    "mutual_information_discrete",
    "mape",
    "rmse",
    "r2_score",
    "KFold",
    "GroupKFold",
    "StandardScaler",
]
