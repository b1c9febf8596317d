"""Regression metrics.

MAPE is the paper's headline metric for both the deviation models (<5%,
§V-B) and the forecasting ablations (Figs. 8 and 10).
"""

from __future__ import annotations

import numpy as np


def _check(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.float64).ravel()
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same shape")
    if len(y_true) == 0:
        raise ValueError("empty input")
    return y_true, y_pred


def mape(y_true: np.ndarray, y_pred: np.ndarray, eps: float = 1e-12) -> float:
    """Mean absolute percentage error, in percent."""
    y_true, y_pred = _check(y_true, y_pred)
    denom = np.maximum(np.abs(y_true), eps)
    return float(100.0 * np.mean(np.abs(y_true - y_pred) / denom))


def rmse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Root mean squared error."""
    y_true, y_pred = _check(y_true, y_pred)
    return float(np.sqrt(np.mean((y_true - y_pred) ** 2)))


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination (1 = perfect, 0 = mean predictor)."""
    y_true, y_pred = _check(y_true, y_pred)
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot
