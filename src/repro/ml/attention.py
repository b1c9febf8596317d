"""Scalar dot-product attention forecaster (paper §IV-C).

The paper predicts the aggregate execution time of the next ``k`` steps
from the counters of the last ``m`` steps using "the popular scalar
dot-product attention along with a fully connected neural network"
(Vaswani et al., 2017).  This is that model, with explicit NumPy
forward/backward passes:

    Q = X Wq,  K = X Wk,  V = X Wv             (per-step projections)
    A = softmax(Q K^T / sqrt(d))               (temporal attention)
    C = A V                                    (attended context)
    pooled = [mean_t C ; C_m]                  (mean + current-step context)
    y = W2 relu(W1 pooled + b1) + b2           (MLP head)

The current-step context is concatenated because the forecasting target
(aggregate time of the next k steps) is anchored at the window's final
step t_c (paper Fig. 6).

Inputs are standardised internally; the target is standardised as well so
the MSE landscape is well-conditioned regardless of counter magnitudes.

Training keeps every parameter as a view into one flat vector, so each
Adam step is a single elementwise pass; the fitted model holds standalone
arrays again.  The backward pass computes the three projection gradients
with one einsum over ``[dQ | dK | dV]``: NumPy's einsum builds each output
element as a sequential multiply-add over the (b, m) rows, so widening
its output changes no sum.  Both leave every bit of the fit unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.ml.nn import Adam, glorot, relu, relu_grad, softmax, softmax_backward
from repro.ml.scaling import StandardScaler


class AttentionForecaster:
    """Attention + MLP regressor over (m, H) windows."""

    def __init__(
        self,
        d_model: int = 24,
        hidden: int = 48,
        lr: float = 3e-3,
        epochs: int = 300,
        batch_size: int = 128,
        seed: int = 0,
        patience: int = 40,
        validation_fraction: float = 0.15,
    ) -> None:
        if d_model < 1 or hidden < 1:
            raise ValueError("d_model and hidden must be positive")
        self.d_model = d_model
        self.hidden = hidden
        self.lr = lr
        self.epochs = epochs
        self.batch_size = batch_size
        self.seed = seed
        self.patience = patience
        self.validation_fraction = validation_fraction
        self.params: dict[str, np.ndarray] | None = None
        self._x_scaler: StandardScaler | None = None
        self._y_scaler: StandardScaler | None = None
        self.history_: list[float] = []

    # ------------------------------------------------------------------ #

    def _init_params(self, h: int, rng: np.random.Generator) -> None:
        d, hid = self.d_model, self.hidden
        self.params = {
            "Wq": glorot(rng, (h, d)),
            "Wk": glorot(rng, (h, d)),
            "Wv": glorot(rng, (h, d)),
            "W1": glorot(rng, (2 * d, hid)),
            "b1": np.zeros(hid),
            "W2": glorot(rng, (hid, 1)),
            "b2": np.zeros(1),
        }

    def _standardize_x(self, x: np.ndarray, fit: bool) -> np.ndarray:
        b, m, h = x.shape
        flat = x.reshape(b * m, h)
        if fit:
            self._x_scaler = StandardScaler().fit(flat)
        return self._x_scaler.transform(flat).reshape(b, m, h)

    # ------------------------------------------------------------------ #

    def _forward(self, x: np.ndarray, need_cache: bool = False):
        p = self.params
        d = self.d_model
        q = x @ p["Wq"]
        k = x @ p["Wk"]
        v = x @ p["Wv"]
        scores = q @ k.swapaxes(1, 2) / np.sqrt(d)
        a = softmax(scores, axis=-1)
        c = a @ v
        # ``c.mean(axis=1)`` is exactly this sum divided by m.
        pooled = np.concatenate([c.sum(axis=1) / x.shape[1], c[:, -1, :]], axis=1)
        z1 = pooled @ p["W1"] + p["b1"]
        h1 = relu(z1)
        yhat = (h1 @ p["W2"] + p["b2"])[:, 0]
        if not need_cache:
            return yhat
        return yhat, (x, q, k, v, a, pooled, z1, h1)

    def _backward(self, grad_y: np.ndarray, cache) -> dict[str, np.ndarray]:
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
        d_a = d_c @ v.swapaxes(1, 2)  # (B, m, m)
        d_v = a.swapaxes(1, 2) @ d_c  # (B, m, d)
        d_scores = softmax_backward(a, d_a, axis=-1) / np.sqrt(d)
        d_q = d_scores @ k
        d_k = d_scores.swapaxes(1, 2) @ q
        # One einsum for the three projections: it adds each output
        # element's terms in (b, m) order whatever the output width, so
        # every column gets the bits of a per-projection einsum.
        g_qkv = np.einsum(
            "bmh,bmd->hd", x, np.concatenate([d_q, d_k, d_v], axis=2)
        )
        g["Wq"], g["Wk"], g["Wv"] = np.split(g_qkv, 3, axis=1)
        return g

    # ------------------------------------------------------------------ #

    def fit(self, x: np.ndarray, y: np.ndarray) -> "AttentionForecaster":
        """Train on windows ``x`` (n, m, H) and targets ``y`` (n,)."""
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
        # Train every parameter as a view into one flat vector, so each
        # Adam step is one elementwise pass (the same arithmetic per
        # entry as one pass per array).
        names = list(self.params)
        flat = np.concatenate([self.params[k] for k in names], axis=None)
        self.params = _views(flat, self.params)
        opt = Adam({"flat": flat}, lr=self.lr)

        # Validation split for early stopping.
        n_val = max(1, int(round(self.validation_fraction * n))) if n >= 10 else 0
        perm = rng.permutation(n)
        val_idx = perm[:n_val]
        tr_idx = perm[n_val:]
        x_val, y_val = xs[val_idx], ys[val_idx]
        best_val = np.inf
        best_params = None
        stale = 0

        self.history_ = []
        bs = min(self.batch_size, len(tr_idx))
        for _ in range(self.epochs):
            order = rng.permutation(tr_idx)
            for start in range(0, len(order), bs):
                batch = order[start : start + bs]
                yhat, cache = self._forward(xs[batch], need_cache=True)
                grad_y = 2.0 * (yhat - ys[batch]) / len(batch)
                grads = self._backward(grad_y, cache)
                opt.step({"flat": np.concatenate([grads[k] for k in names], axis=None)})
            if n_val:
                val_pred = self._forward(x_val)
                val_loss = float(np.mean((val_pred - y_val) ** 2))
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
                tr_pred = self._forward(xs)
                self.history_.append(float(np.mean((tr_pred - ys) ** 2)))
        # The fitted model holds standalone arrays, as it always has.
        if best_params is None:
            best_params = {k: v.copy() for k, v in self.params.items()}
        self.params = best_params
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.params is None or self._x_scaler is None:
            raise RuntimeError("model is not fitted")
        x = np.asarray(x, dtype=np.float64)
        xs = self._standardize_x(x, fit=False)
        ys = self._forward(xs)
        return self._y_scaler.inverse_transform(ys)

    # ------------------------------------------------------------------ #


def _views(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Arrays shaped like ``like``'s, laid end to end in ``flat``."""
    views, start = {}, 0
    for name, arr in like.items():
        views[name] = flat[start : start + arr.size].reshape(arr.shape)
        start += arr.size
    return views


def permutation_importance(
    model: AttentionForecaster,
    x: np.ndarray,
    y: np.ndarray,
    metric,
    rng: np.random.Generator | None = None,
    n_repeats: int = 3,
) -> np.ndarray:
    """Model-agnostic feature importance: metric degradation when one
    feature channel is shuffled across windows (used for Fig. 11; the
    paper does not specify its attribution method — see DESIGN.md §6)."""
    if rng is None:
        rng = np.random.default_rng(0)
    x = np.asarray(x, dtype=np.float64)
    base = metric(y, model.predict(x))
    h = x.shape[2]
    out = np.zeros(h)
    for j in range(h):
        scores = []
        for _ in range(n_repeats):
            xp = x.copy()
            perm = rng.permutation(len(x))
            xp[:, :, j] = x[perm][:, :, j]
            scores.append(metric(y, model.predict(xp)) - base)
        out[j] = max(float(np.mean(scores)), 0.0)
    return out
