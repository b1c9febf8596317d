"""Attention forecaster: gradient correctness, learning, importances."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.attention import AttentionForecaster, permutation_importance
from repro.ml.metrics import mape, r2_score
from repro.ml.nn import Adam, glorot, relu, relu_grad, softmax, softmax_backward


# --------------------------------------------------------------------- #
# nn primitives
# --------------------------------------------------------------------- #


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 5, 5)) * 50  # large values: stability check
    a = softmax(x, axis=-1)
    np.testing.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-12)
    assert np.isfinite(a).all()


def test_softmax_backward_matches_numeric():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 4))
    g = rng.normal(size=(3, 4))
    a = softmax(x, axis=-1)
    grad = softmax_backward(a, g, axis=-1)
    eps = 1e-6
    num = np.zeros_like(x)
    for i in range(3):
        for j in range(4):
            xp = x.copy()
            xp[i, j] += eps
            xm = x.copy()
            xm[i, j] -= eps
            num[i, j] = ((softmax(xp, -1) * g).sum(axis=-1)[i] -
                         (softmax(xm, -1) * g).sum(axis=-1)[i]) / (2 * eps)
    np.testing.assert_allclose(grad, num, atol=1e-6)


def test_relu_and_grad():
    x = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_array_equal(relu(x), [0, 0, 2])
    np.testing.assert_array_equal(relu_grad(x), [0, 0, 1])


def test_adam_minimises_quadratic():
    params = {"w": np.array([5.0])}
    opt = Adam(params, lr=0.1)
    for _ in range(200):
        opt.step({"w": 2 * params["w"]})  # d/dw w^2
    assert abs(params["w"][0]) < 1e-2
    with pytest.raises(ValueError):
        Adam(params, lr=0)


def test_glorot_shape_and_scale():
    rng = np.random.default_rng(2)
    w = glorot(rng, (100, 50))
    limit = np.sqrt(6 / 150)
    assert w.shape == (100, 50)
    assert abs(w).max() <= limit


# --------------------------------------------------------------------- #
# forecaster
# --------------------------------------------------------------------- #


def test_attention_gradients_match_numeric():
    """Full end-to-end gradient check of the hand-written backward pass."""
    rng = np.random.default_rng(3)
    b, m, h = 5, 4, 3
    model = AttentionForecaster(d_model=4, hidden=6, seed=0)
    model._init_params(h, rng)
    x = rng.normal(size=(b, m, h))
    y = rng.normal(size=b)

    def loss() -> float:
        yhat = model._forward(x)
        return float(np.mean((yhat - y) ** 2))

    yhat, cache = model._forward(x, need_cache=True)
    grads = model._backward(2.0 * (yhat - y) / b, cache)

    eps = 1e-6
    for name, p in model.params.items():
        it = np.nditer(p, flags=["multi_index"])
        # Check a handful of coordinates per tensor.
        checked = 0
        while not it.finished and checked < 5:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            lp = loss()
            p[idx] = orig - eps
            lm = loss()
            p[idx] = orig
            num = (lp - lm) / (2 * eps)
            assert grads[name][idx] == pytest.approx(num, rel=1e-4, abs=1e-6), name
            checked += 1
            for _ in range(max(p.size // 5, 1)):
                if it.finished:
                    break
                it.iternext()


def test_attention_learns_weighted_sum():
    """Target = weighted sum of a window channel: learnable to high R2."""
    rng = np.random.default_rng(4)
    n, m, h = 600, 5, 4
    x = rng.normal(size=(n, m, h))
    w = np.array([0.1, 0.15, 0.2, 0.25, 0.3])
    y = (x[:, :, 1] * w).sum(axis=1) + 0.05 * rng.normal(size=n)
    model = AttentionForecaster(epochs=150, seed=1, lr=5e-3)
    model.fit(x[:500], y[:500])
    pred = model.predict(x[500:])
    assert r2_score(y[500:], pred) > 0.8


def test_attention_scaling_invariance():
    """Counter-magnitude inputs (1e10) train as well as unit inputs."""
    rng = np.random.default_rng(5)
    n, m, h = 400, 4, 3
    x = rng.normal(size=(n, m, h))
    y = x[:, -1, 0] * 3 + 100.0
    big = x * 1e10
    model = AttentionForecaster(epochs=120, seed=2)
    model.fit(big[:300], y[:300])
    pred = model.predict(big[300:])
    assert r2_score(y[300:], pred) > 0.7
    # Predictions come back in target units.
    assert 90 < pred.mean() < 110


def test_attention_early_stopping_and_history():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(200, 3, 2))
    y = x[:, 0, 0]
    model = AttentionForecaster(epochs=500, patience=10, seed=3)
    model.fit(x, y)
    assert len(model.history_) <= 500
    assert len(model.history_) >= 10


def test_attention_validation_and_unfitted():
    model = AttentionForecaster()
    with pytest.raises(RuntimeError):
        model.predict(np.ones((2, 3, 4)))
    with pytest.raises(ValueError):
        model.fit(np.ones((5, 3)), np.ones(5))
    with pytest.raises(ValueError):
        AttentionForecaster(d_model=0)


def test_permutation_importance_finds_signal_channel():
    rng = np.random.default_rng(8)
    n, m, h = 500, 4, 5
    x = rng.normal(size=(n, m, h))
    y = 5 * x[:, :, 2].mean(axis=1) + 0.1 * rng.normal(size=n)
    model = AttentionForecaster(epochs=150, seed=5, lr=5e-3).fit(x, y)
    imp = permutation_importance(
        model, x, y, metric=mape, rng=np.random.default_rng(0)
    )
    assert imp.shape == (h,)
    assert np.argmax(imp) == 2
    assert (imp >= 0).all()


def test_attention_deterministic():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(150, 3, 2))
    y = x[:, 0, 0]
    a = AttentionForecaster(epochs=40, seed=11).fit(x, y).predict(x[:10])
    b = AttentionForecaster(epochs=40, seed=11).fit(x, y).predict(x[:10])
    np.testing.assert_array_equal(a, b)
