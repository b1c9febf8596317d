"""Metrics, scalers, CV splitters."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.metrics import mape, r2_score, rmse
from repro.ml.model_selection import GroupKFold, KFold
from repro.ml.scaling import StandardScaler


def test_mape_basic():
    assert mape([100, 200], [110, 180]) == pytest.approx(10.0)
    assert mape([1, 1], [1, 1]) == 0.0


def test_mae_rmse():
    y = np.array([1.0, 2.0, 3.0])
    p = np.array([2.0, 2.0, 1.0])
    assert rmse(y, p) == pytest.approx(np.sqrt(5 / 3))


def test_r2():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert r2_score(y, y) == 1.0
    assert r2_score(y, np.full(4, y.mean())) == pytest.approx(0.0)
    assert r2_score(np.ones(3), np.ones(3)) == 1.0
    assert r2_score(np.ones(3), np.zeros(3)) == 0.0


def test_metric_validation():
    with pytest.raises(ValueError):
        mape([1, 2], [1])
    with pytest.raises(ValueError):
        rmse([], [])


def test_standard_scaler_roundtrip():
    rng = np.random.default_rng(0)
    x = rng.normal(5, 3, size=(100, 4))
    x[:, 2] = 7.0  # constant feature
    sc = StandardScaler()
    z = sc.fit_transform(x)
    np.testing.assert_allclose(z.mean(axis=0), 0, atol=1e-12)
    np.testing.assert_allclose(z[:, [0, 1, 3]].std(axis=0), 1, atol=1e-12)
    np.testing.assert_allclose(z[:, 2], 0)
    np.testing.assert_allclose(sc.inverse_transform(z), x, atol=1e-9)


def test_standard_scaler_1d_and_unfitted():
    sc = StandardScaler()
    with pytest.raises(RuntimeError):
        sc.transform(np.ones(3))
    y = np.array([1.0, 3.0])
    z = sc.fit_transform(y)
    assert z.shape == (2,)
    np.testing.assert_allclose(sc.inverse_transform(z), y)


def test_kfold_partitions():
    kf = KFold(n_splits=5, seed=1)
    seen = []
    for train, test in kf.split(23):
        assert len(np.intersect1d(train, test)) == 0
        assert len(train) + len(test) == 23
        seen.extend(test.tolist())
    assert sorted(seen) == list(range(23))


def test_kfold_validation():
    with pytest.raises(ValueError):
        KFold(n_splits=1)
    with pytest.raises(ValueError):
        list(KFold(n_splits=10).split(5))


def test_group_kfold_keeps_groups_together():
    groups = np.repeat(np.arange(10), 7)
    gkf = GroupKFold(n_splits=5, seed=2)
    seen_groups = []
    for train, test in gkf.split(groups):
        tr_g = set(groups[train])
        te_g = set(groups[test])
        assert not tr_g & te_g
        seen_groups.extend(sorted(te_g))
    assert sorted(seen_groups) == list(range(10))


def test_group_kfold_validation():
    with pytest.raises(ValueError):
        list(GroupKFold(n_splits=5).split(np.array([0, 0, 1, 1])))


@given(st.integers(10, 200), st.integers(2, 8))
@settings(max_examples=20, deadline=None)
def test_property_kfold_covers_everything(n, k):
    if n < k:
        return
    seen = np.zeros(n, dtype=int)
    for _, test in KFold(n_splits=k, seed=0).split(n):
        seen[test] += 1
    assert (seen == 1).all()
