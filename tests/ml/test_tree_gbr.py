"""Decision trees and gradient boosting: accuracy and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.gbr import GradientBoostedRegressor
from repro.ml.metrics import r2_score
from repro.ml.tree import Binner, DecisionTreeRegressor


@pytest.fixture(scope="module")
def friedman():
    """A Friedman#1-style benchmark regression problem."""
    rng = np.random.default_rng(7)
    n = 1500
    x = rng.uniform(0, 1, size=(n, 8))
    y = (
        10 * np.sin(np.pi * x[:, 0] * x[:, 1])
        + 20 * (x[:, 2] - 0.5) ** 2
        + 10 * x[:, 3]
        + 5 * x[:, 4]
        + rng.normal(0, 0.5, n)
    )
    return x[:1000], y[:1000], x[1000:], y[1000:]


# --------------------------------------------------------------------- #
# Binner
# --------------------------------------------------------------------- #


def test_binner_monotone():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(500, 2))
    b = Binner(n_bins=16).fit(x)
    codes = b.transform(x)
    assert codes.dtype == np.uint8
    assert codes.max() < 16
    # Binning preserves order within a feature.
    order = np.argsort(x[:, 0])
    assert (np.diff(codes[order, 0].astype(int)) >= 0).all()


def test_binner_validation():
    with pytest.raises(ValueError):
        Binner(n_bins=1)
    with pytest.raises(RuntimeError):
        Binner().transform(np.ones((3, 2)))
    with pytest.raises(ValueError):
        Binner().fit(np.ones(5))


def test_binner_constant_feature():
    x = np.ones((50, 1))
    codes = Binner(8).fit(x).transform(x)
    assert len(np.unique(codes)) == 1


# --------------------------------------------------------------------- #
# Tree
# --------------------------------------------------------------------- #


def test_tree_fits_step_function():
    x = np.linspace(0, 1, 200)[:, None]
    y = (x[:, 0] > 0.5).astype(float) * 10
    tree = DecisionTreeRegressor(max_depth=2).fit(x, y)
    pred = tree.predict(x)
    assert r2_score(y, pred) > 0.99


def test_tree_depth_limit():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(300, 3))
    y = rng.normal(size=300)
    t1 = DecisionTreeRegressor(max_depth=1).fit(x, y)
    t4 = DecisionTreeRegressor(max_depth=4).fit(x, y)
    assert t1.node_count <= 3
    assert t4.node_count > t1.node_count


def test_tree_min_samples_leaf():
    x = np.arange(20, dtype=float)[:, None]
    y = x[:, 0]
    tree = DecisionTreeRegressor(max_depth=10, min_samples_leaf=10).fit(x, y)
    # With min_leaf=10 over 20 samples only one split is possible.
    assert tree.node_count <= 3


def test_tree_constant_target_no_split():
    x = np.random.default_rng(2).normal(size=(100, 2))
    y = np.full(100, 3.0)
    tree = DecisionTreeRegressor().fit(x, y)
    np.testing.assert_allclose(tree.predict(x), 3.0)


def test_tree_importances_find_signal():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(800, 5))
    y = 4 * x[:, 2] + 0.1 * rng.normal(size=800)
    tree = DecisionTreeRegressor(max_depth=3).fit(x, y)
    assert np.argmax(tree.feature_importances_) == 2
    assert tree.feature_importances_.sum() == pytest.approx(1.0)


def test_tree_validation():
    with pytest.raises(ValueError):
        DecisionTreeRegressor(max_depth=0)
    with pytest.raises(ValueError):
        DecisionTreeRegressor(min_samples_leaf=0)
    with pytest.raises(ValueError):
        DecisionTreeRegressor().fit(np.ones((5, 2)), np.ones(4))
    t = DecisionTreeRegressor()
    t.fit_binned(np.zeros((10, 2), dtype=np.uint8), np.ones(10))
    with pytest.raises(RuntimeError):
        t.predict(np.ones((3, 2)))  # fitted on binned data, no binner


def test_tree_fit_binned_rejects_bad_codes():
    y = np.ones(10)
    tree = DecisionTreeRegressor(n_bins=4)
    codes = np.zeros((10, 2), dtype=np.uint8)
    codes[3, 0] = 4  # one past the last bin: would alias feature 1's bin 0
    with pytest.raises(ValueError, match="codes"):
        tree.fit_binned(codes, y)
    with pytest.raises(ValueError, match="codes"):
        tree.fit_binned(-np.ones((10, 2), dtype=np.int64), y)
    with pytest.raises(ValueError, match="codes"):
        tree.fit_binned(np.full((10, 2), 0.5), y)


def test_tree_fit_binned_rejects_bad_shapes():
    tree = DecisionTreeRegressor()
    with pytest.raises(ValueError):
        tree.fit_binned(np.zeros(10, dtype=np.uint8), np.ones(10))
    with pytest.raises(ValueError):
        tree.fit_binned(np.zeros((10, 2, 1), dtype=np.uint8), np.ones(10))
    with pytest.raises(ValueError):
        tree.fit_binned(np.zeros((10, 2), dtype=np.uint8), np.ones(9))


def test_tree_fit_binned_without_features_is_a_leaf():
    y = np.arange(10, dtype=float)
    tree = DecisionTreeRegressor().fit_binned(np.zeros((10, 0), dtype=np.uint8), y)
    assert tree.node_count == 1
    assert tree.feature_importances_.shape == (0,)
    np.testing.assert_array_equal(
        tree.predict_binned(np.zeros((3, 0), dtype=np.uint8)), 4.5
    )


# --------------------------------------------------------------------- #
# GBR
# --------------------------------------------------------------------- #


def test_gbr_beats_single_tree(friedman):
    xtr, ytr, xte, yte = friedman
    tree = DecisionTreeRegressor(max_depth=3).fit(xtr, ytr)
    gbr = GradientBoostedRegressor(n_estimators=150, random_state=0).fit(xtr, ytr)
    r2_tree = r2_score(yte, tree.predict(xte))
    r2_gbr = r2_score(yte, gbr.predict(xte))
    assert r2_gbr > r2_tree
    assert r2_gbr > 0.85


def test_gbr_training_loss_decreases(friedman):
    xtr, ytr, _, _ = friedman
    gbr = GradientBoostedRegressor(n_estimators=60).fit(xtr, ytr)
    assert gbr.train_score_[-1] < gbr.train_score_[0]


def test_gbr_importances_rank_signal():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1000, 6))
    y = 5 * x[:, 1] + 1 * x[:, 4] + 0.2 * rng.normal(size=1000)
    gbr = GradientBoostedRegressor(n_estimators=80).fit(x, y)
    imp = gbr.feature_importances_
    assert np.argmax(imp) == 1
    assert imp[4] > imp[0]
    assert imp.sum() == pytest.approx(1.0)


def test_gbr_deterministic(friedman):
    xtr, ytr, xte, _ = friedman
    a = GradientBoostedRegressor(n_estimators=20, random_state=5).fit(xtr, ytr)
    b = GradientBoostedRegressor(n_estimators=20, random_state=5).fit(xtr, ytr)
    np.testing.assert_array_equal(a.predict(xte), b.predict(xte))


def test_gbr_validation():
    with pytest.raises(ValueError):
        GradientBoostedRegressor(n_estimators=0)
    with pytest.raises(ValueError):
        GradientBoostedRegressor(learning_rate=0)
    with pytest.raises(ValueError):
        GradientBoostedRegressor(subsample=0)
    with pytest.raises(RuntimeError):
        GradientBoostedRegressor().predict(np.ones((3, 2)))


@given(seed=st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_property_gbr_predictions_bounded_by_target_range(seed):
    """L2 boosting with shrinkage cannot wildly overshoot the target hull."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(200, 3))
    y = rng.uniform(-1, 1, size=200)
    gbr = GradientBoostedRegressor(n_estimators=30, random_state=seed).fit(x, y)
    pred = gbr.predict(x)
    margin = 0.5 * (y.max() - y.min() + 1e-9)
    assert pred.min() >= y.min() - margin
    assert pred.max() <= y.max() + margin


# --------------------------------------------------------------------- #
# Binner: vectorized transform and column subsetting
# --------------------------------------------------------------------- #


def _reference_transform(binner: Binner, x: np.ndarray) -> np.ndarray:
    """The per-feature searchsorted loop the fast path must reproduce."""
    out = np.empty(x.shape, dtype=np.uint8)
    for f, edges in enumerate(binner.edges_):
        out[:, f] = np.searchsorted(edges, x[:, f], side="right")
    return out


def test_binner_vectorized_transform_matches_reference():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(9000, 6))  # > one chunk of rows
    b = Binner(32).fit(x)
    np.testing.assert_array_equal(b.transform(x), _reference_transform(b, x))


def test_binner_transform_with_nan_takes_reference_path():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(200, 3))
    b = Binner(16).fit(x)
    x[5, 1] = np.nan
    np.testing.assert_array_equal(b.transform(x), _reference_transform(b, x))


def test_binner_transform_uneven_edges_matches_reference():
    # A constant column dedupes to fewer edges than its neighbours, so
    # the stacked fast path is unavailable — the loop must still agree.
    rng = np.random.default_rng(5)
    x = np.column_stack([rng.normal(size=300), np.ones(300)])
    b = Binner(16).fit(x)
    assert len({len(e) for e in b.edges_}) > 1
    np.testing.assert_array_equal(b.transform(x), _reference_transform(b, x))


def test_binner_subset_equals_refit_on_columns():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(400, 5))
    cols = [0, 2, 4]
    full = Binner(32).fit(x)
    refit = Binner(32).fit(x[:, cols])
    sub = full.subset(cols)
    for a, b in zip(sub.edges_, refit.edges_):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(sub.transform(x[:, cols]), refit.transform(x[:, cols]))


def test_binner_subset_requires_fit():
    with pytest.raises(RuntimeError):
        Binner(8).subset([0])


# --------------------------------------------------------------------- #
# GBR: pre-binned fits
# --------------------------------------------------------------------- #


def test_gbr_fit_binned_bit_identical_to_plain_fit(friedman):
    xtr, ytr, xte, _ = friedman
    cols = [1, 3, 5, 6]
    plain = GradientBoostedRegressor(n_estimators=15, random_state=2)
    plain.fit(xtr[:, cols], ytr)
    binner = Binner(plain.n_bins).fit(xtr)
    binned = GradientBoostedRegressor(n_estimators=15, random_state=2)
    binned.fit_binned(binner.transform(xtr)[:, cols], ytr, binner.subset(cols))
    np.testing.assert_array_equal(
        plain.predict(xte[:, cols]), binned.predict(xte[:, cols])
    )
    np.testing.assert_array_equal(
        plain.feature_importances_, binned.feature_importances_
    )


# --------------------------------------------------------------------- #
# Prediction input width
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("model", ["tree", "gbr"])
def test_predict_binned_rejects_wrong_width(model):
    rng = np.random.default_rng(12)
    x = rng.normal(size=(80, 3))
    y = x[:, 0] - x[:, 2]
    if model == "tree":
        est = DecisionTreeRegressor().fit(x, y)
        codes = est.binner.transform(x)
    else:
        est = GradientBoostedRegressor(n_estimators=5).fit(x, y)
        codes = est.binner_.transform(x)
    assert est.predict_binned(codes).shape == (80,)
    # Four columns used to route silently on the first three; two raised
    # a bare IndexError from the routing loop.
    for bad in (
        np.zeros((4, 4), dtype=np.uint8),
        np.zeros((4, 2), dtype=np.uint8),
        np.zeros(3, dtype=np.uint8),
        np.zeros((4, 3, 1), dtype=np.uint8),
    ):
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            est.predict_binned(bad)


def test_predict_binned_requires_fit():
    with pytest.raises(RuntimeError):
        DecisionTreeRegressor().predict_binned(np.zeros((2, 1), dtype=np.uint8))
    with pytest.raises(RuntimeError):
        GradientBoostedRegressor().predict_binned(np.zeros((2, 1), dtype=np.uint8))
