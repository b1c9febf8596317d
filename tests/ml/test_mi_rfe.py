"""Mutual information and recursive feature elimination."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.gbr import GradientBoostedRegressor
from repro.ml.mi import (
    columnwise_mi,
    mutual_information_binary,
    mutual_information_discrete,
)
from repro.ml.rfe import RFE, relevance_scores


# --------------------------------------------------------------------- #
# MI
# --------------------------------------------------------------------- #


def test_mi_identical_binary():
    x = np.array([0, 1, 0, 1, 1, 0] * 10)
    # I(X; X) = H(X) = ln 2 for a fair coin.
    assert mutual_information_binary(x, x) == pytest.approx(np.log(2), rel=1e-6)


def test_mi_independent_near_zero():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2, size=20_000)
    y = rng.integers(0, 2, size=20_000)
    assert mutual_information_binary(x, y) < 5e-4


def test_mi_anticorrelation_is_informative():
    x = np.array([0, 1] * 50)
    assert mutual_information_binary(x, 1 - x) == pytest.approx(np.log(2), rel=1e-6)


def test_mi_nonnegative_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.integers(0, 3, size=200)
        y = rng.integers(0, 4, size=200)
        assert mutual_information_discrete(x, y) >= -1e-12


def test_mi_validation():
    with pytest.raises(ValueError):
        mutual_information_discrete(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        mutual_information_discrete(np.empty(0), np.empty(0))


def test_columnwise_mi_ranks_informative_user():
    """The paper's use: aggressor presence predicts non-optimality."""
    rng = np.random.default_rng(2)
    n, u = 400, 6
    m = rng.integers(0, 2, size=(n, u)).astype(np.int8)
    # Optimal iff user 3 absent (plus noise).
    p = (1 - m[:, 3]).astype(np.int8)
    flip = rng.random(n) < 0.1
    p[flip] = 1 - p[flip]
    mi = columnwise_mi(m, p)
    assert np.argmax(mi) == 3
    with pytest.raises(ValueError):
        columnwise_mi(m, p[:-1])


# --------------------------------------------------------------------- #
# RFE
# --------------------------------------------------------------------- #


def _fast_gbr():
    return GradientBoostedRegressor(n_estimators=25, max_depth=2, random_state=0)


@pytest.fixture(scope="module")
def informative_problem():
    rng = np.random.default_rng(4)
    n, h = 600, 8
    x = rng.normal(size=(n, h))
    # Features 1 and 5 carry the signal.
    y = 3 * x[:, 1] + 2 * x[:, 5] + 0.3 * rng.normal(size=n)
    return x, y


def test_rfe_ranking_keeps_signal_last(informative_problem):
    x, y = informative_problem
    rfe = RFE(_fast_gbr).fit(x, y)
    ranking = rfe.ranking_
    assert sorted(ranking.tolist()) == list(range(1, 9))
    # The two informative features survive longest.
    assert set(np.argsort(ranking)[:2]) == {1, 5}
    # Elimination order lists the noise features first.
    assert set(rfe.elimination_order_[:3]).isdisjoint({1, 5})


def test_rfe_step_validation():
    with pytest.raises(ValueError):
        RFE(step=0)


def test_relevance_scores_structure(informative_problem):
    x, y = informative_problem
    names = [f"f{i}" for i in range(8)]
    res = relevance_scores(
        x, y, names, estimator_factory=_fast_gbr, n_splits=4, seed=0
    )
    assert res.scores.shape == (8,)
    assert (res.scores >= 0).all() and (res.scores <= 1).all()
    # Signal features get (near-)max relevance.
    assert res.scores[1] >= 0.75
    assert res.scores[5] >= 0.75
    assert set(res.top_features(2)) == {"f1", "f5"}
    assert len(res.chosen_subsets) == 4
    assert res.prediction_mape >= 0


def test_relevance_scores_subsampling(informative_problem):
    x, y = informative_problem
    names = [f"f{i}" for i in range(8)]
    res = relevance_scores(
        x, y, names, estimator_factory=_fast_gbr, n_splits=3, max_samples=200
    )
    assert res.scores.shape == (8,)


def test_relevance_scores_validation(informative_problem):
    x, y = informative_problem
    with pytest.raises(ValueError):
        relevance_scores(x, y, ["too", "few"], n_splits=3)


def test_relevance_mape_offset(informative_problem):
    """With a mean-trend offset, MAPE is computed on absolute values."""
    x, y = informative_problem
    names = [f"f{i}" for i in range(8)]
    offset = np.full(len(y), 100.0)
    res = relevance_scores(
        x,
        y,
        names,
        estimator_factory=_fast_gbr,
        n_splits=3,
        mape_offset=offset,
        max_samples=None,
    )
    # Offsetting to ~100 makes percentage errors small (paper: <5%).
    assert res.prediction_mape < 5.0
