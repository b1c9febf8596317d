"""Frozen attention training step, used as the forecaster's golden reference.

Verbatim copies of ``AttentionForecaster._forward``/``_backward``/``fit``
as they were before the training step was trimmed: three projection
einsums per backward pass, and an :class:`~repro.ml.nn.Adam` that steps
each parameter array on its own.  The only edit: ``fit`` calls the
frozen ``legacy_forward``/``legacy_backward`` instead of the model's
methods.  ``tests/ml/test_legacy_equivalence.py`` asserts the production
fit reproduces ``params`` and ``history_`` byte for byte.  Do not
"modernise" this module — its value is that it does not change.
"""

from __future__ import annotations

import numpy as np

from repro.ml.attention import AttentionForecaster
from repro.ml.nn import Adam, relu, relu_grad, softmax, softmax_backward
from repro.ml.scaling import StandardScaler


def legacy_forward(model: AttentionForecaster, x: np.ndarray, need_cache: bool = False):
    self = model
    p = self.params
    d = self.d_model
    q = x @ p["Wq"]
    k = x @ p["Wk"]
    v = x @ p["Wv"]
    scores = q @ np.swapaxes(k, 1, 2) / np.sqrt(d)
    a = softmax(scores, axis=-1)
    c = a @ v
    pooled = np.concatenate([c.mean(axis=1), c[:, -1, :]], axis=1)
    z1 = pooled @ p["W1"] + p["b1"]
    h1 = relu(z1)
    yhat = (h1 @ p["W2"] + p["b2"])[:, 0]
    if not need_cache:
        return yhat
    return yhat, (x, q, k, v, a, pooled, z1, h1)


def legacy_backward(
    model: AttentionForecaster, grad_y: np.ndarray, cache
) -> dict[str, np.ndarray]:
    self = model
    p = self.params
    x, q, k, v, a, pooled, z1, h1 = cache
    d = self.d_model
    m = x.shape[1]

    d_h1 = grad_y[:, None] @ p["W2"].T  # (B, hid)
    g = {
        "W2": h1.T @ grad_y[:, None],
        "b2": np.array([grad_y.sum()]),
    }
    d_z1 = d_h1 * relu_grad(z1)
    g["W1"] = pooled.T @ d_z1
    g["b1"] = d_z1.sum(axis=0)
    d_pooled = d_z1 @ p["W1"].T  # (B, 2d)
    d_c = np.repeat(d_pooled[:, None, :d] / m, m, axis=1)  # (B, m, d)
    d_c[:, -1, :] += d_pooled[:, d:]
    d_a = d_c @ np.swapaxes(v, 1, 2)  # (B, m, m)
    d_v = np.swapaxes(a, 1, 2) @ d_c  # (B, m, d)
    d_scores = softmax_backward(a, d_a, axis=-1) / np.sqrt(d)
    d_q = d_scores @ k
    d_k = np.swapaxes(d_scores, 1, 2) @ q
    g["Wq"] = np.einsum("bmh,bmd->hd", x, d_q)
    g["Wk"] = np.einsum("bmh,bmd->hd", x, d_k)
    g["Wv"] = np.einsum("bmh,bmd->hd", x, d_v)
    return g


def legacy_fit(
    model: AttentionForecaster, x: np.ndarray, y: np.ndarray
) -> AttentionForecaster:
    """Train ``model`` on windows ``x`` (n, m, H) and targets ``y`` (n,)."""
    self = model
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.ndim != 3 or len(x) != len(y):
        raise ValueError("x must be (n, m, H) with matching y")
    rng = np.random.default_rng(self.seed)
    xs = self._standardize_x(x, fit=True)
    self._y_scaler = StandardScaler().fit(y)
    ys = self._y_scaler.transform(y)

    n = len(xs)
    self._init_params(x.shape[2], rng)
    opt = Adam(self.params, lr=self.lr)

    # Validation split for early stopping.
    n_val = max(1, int(round(self.validation_fraction * n))) if n >= 10 else 0
    perm = rng.permutation(n)
    val_idx = perm[:n_val]
    tr_idx = perm[n_val:]
    best_val = np.inf
    best_params = None
    stale = 0

    self.history_ = []
    bs = min(self.batch_size, len(tr_idx))
    for _ in range(self.epochs):
        order = rng.permutation(tr_idx)
        for start in range(0, len(order), bs):
            batch = order[start : start + bs]
            yhat, cache = legacy_forward(self, xs[batch], need_cache=True)
            grad_y = 2.0 * (yhat - ys[batch]) / len(batch)
            grads = legacy_backward(self, grad_y, cache)
            opt.step(grads)
        if n_val:
            val_pred = legacy_forward(self, xs[val_idx])
            val_loss = float(np.mean((val_pred - ys[val_idx]) ** 2))
            self.history_.append(val_loss)
            if val_loss < best_val - 1e-6:
                best_val = val_loss
                best_params = {k: v.copy() for k, v in self.params.items()}
                stale = 0
            else:
                stale += 1
                if stale >= self.patience:
                    break
        else:
            tr_pred = legacy_forward(self, xs)
            self.history_.append(float(np.mean((tr_pred - ys) ** 2)))
    if best_params is not None:
        self.params = best_params
    return self
