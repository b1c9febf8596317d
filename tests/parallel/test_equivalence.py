"""Serial vs parallel bit-identity for the rewired analysis fan-outs.

The determinism contract of `repro.parallel` is that the worker count can
never perturb any result: tasks are pure functions of their arguments and
gather in submission order.  These tests pin that contract on the RFE
fold fan-out, on the frozen forecasting ablation grid of
``tests/graph/legacy_drivers.py`` (which maps the live ``_score_windows``
cells over the pool), and on the KFold split streams they build their
tasks from.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.attention import AttentionForecaster
from repro.ml.gbr import GradientBoostedRegressor
from repro.ml.model_selection import KFold
from repro.ml.rfe import relevance_scores
from tests.graph.legacy_drivers import ablation_grid


def _fast_gbr() -> GradientBoostedRegressor:
    return GradientBoostedRegressor(n_estimators=10, max_depth=2)


class _NoBinned:
    """Same numerics as GBR, but hides the pre-binned surface — forces
    the plain-fit fallback the fast path must match bit-for-bit."""

    def __init__(self) -> None:
        self._g = _fast_gbr()

    def fit(self, x, y):
        self._g.fit(x, y)
        return self

    def predict(self, x):
        return self._g.predict(x)

    @property
    def feature_importances_(self):
        return self._g.feature_importances_


def _tiny_forecaster(seed: int = 0) -> AttentionForecaster:
    return AttentionForecaster(
        d_model=8, hidden=12, epochs=10, batch_size=64, seed=seed
    )


@pytest.fixture(autouse=True)
def _no_env_workers(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


@pytest.fixture(scope="module")
def xy():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(220, 6))
    y = 2.0 * x[:, 0] - x[:, 3] + rng.normal(scale=0.1, size=220) + 15.0
    return x, y


def _relevance(x, y, monkeypatch, workers):
    monkeypatch.setenv("REPRO_WORKERS", str(workers))
    return relevance_scores(
        x,
        y,
        [f"f{i}" for i in range(x.shape[1])],
        estimator_factory=_fast_gbr,
        n_splits=4,
    )


@pytest.mark.parametrize("workers", [0, 4])
def test_relevance_scores_worker_count_invariant(xy, monkeypatch, workers):
    x, y = xy
    ref = _relevance(x, y, monkeypatch, 1)
    par = _relevance(x, y, monkeypatch, workers)
    assert np.array_equal(ref.scores, par.scores)
    assert ref.prediction_mape == par.prediction_mape
    assert ref.chosen_subsets == par.chosen_subsets


def test_relevance_scores_env_override(xy, monkeypatch):
    # Unset REPRO_WORKERS is serial; setting it is the one way to fan out.
    x, y = xy
    kwargs = dict(estimator_factory=_fast_gbr, n_splits=4)
    names = [f"f{i}" for i in range(x.shape[1])]
    ref = relevance_scores(x, y, names, **kwargs)
    monkeypatch.setenv("REPRO_WORKERS", "2")
    par = relevance_scores(x, y, names, **kwargs)
    assert np.array_equal(ref.scores, par.scores)
    assert ref.prediction_mape == par.prediction_mape


def test_binned_fast_path_matches_plain_fits(xy, monkeypatch):
    # GBR takes the bin-once / column-slice path; _NoBinned re-bins every
    # subset fit.  Per-feature quantile edges make them bit-identical.
    x, y = xy
    fast = _relevance(x, y, monkeypatch, 1)
    plain = relevance_scores(
        x,
        y,
        [f"f{i}" for i in range(x.shape[1])],
        estimator_factory=_NoBinned,
        n_splits=4,
    )
    assert np.array_equal(fast.scores, plain.scores)
    assert fast.prediction_mape == plain.prediction_mape
    assert fast.chosen_subsets == plain.chosen_subsets


def test_ablation_grid_worker_count_invariant(tiny_campaign, monkeypatch):
    key = next(k for k in tiny_campaign.keys() if "-long" not in k)
    ds = tiny_campaign[key]

    def grid(workers):
        monkeypatch.setenv("REPRO_WORKERS", str(workers))
        return ablation_grid(
            ds,
            ms=[2, 3],
            ks=[2],
            tiers=["app"],
            n_splits=2,
            model_factory=_tiny_forecaster,
        )

    ref = grid(1)
    par = grid(3)
    assert [(r.key, r.m, r.k, r.tier) for r in ref] == [
        (r.key, r.m, r.k, r.tier) for r in par
    ]
    assert [r.per_fold for r in ref] == [r.per_fold for r in par]


def test_kfold_split_determinism():
    a = [(tr.tolist(), te.tolist()) for tr, te in KFold(5, seed=3).split(97)]
    b = [(tr.tolist(), te.tolist()) for tr, te in KFold(5, seed=3).split(97)]
    assert a == b
    c = [(tr.tolist(), te.tolist()) for tr, te in KFold(5, seed=4).split(97)]
    assert a != c
