"""Sliding-window construction (paper Fig. 6, §IV-C).

Pure array plumbing, shared by the forecasting analyses and the
:class:`~repro.features.store.FeatureStore` (which memoizes the resulting
tensors).  Moved here from ``repro.analysis.forecasting`` so the window
logic lives with the rest of the derived-data layer; the old import path
still re-exports it.
"""

from __future__ import annotations

import numpy as np


def validate_window_params(t: int, m: int, k: int, align_m: int | None = None) -> None:
    """Raise ``ValueError`` for window parameters that cannot fit ``t`` steps.

    Shared by :func:`build_windows` and the store's cache lookups, so a
    cached tensor can never be served for parameters that would have
    raised when built.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive")
    if align_m is not None and align_m < m:
        raise ValueError("align_m must be >= m")
    if (align_m or m) + k > t:
        raise ValueError(f"window m={align_m or m} + horizon k={k} exceeds T={t}")


def build_windows(
    features: np.ndarray, y: np.ndarray, m: int, k: int, align_m: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sliding windows over every run (paper Fig. 6).

    Parameters
    ----------
    features:
        (N, T, H) per-step features.
    y:
        (N, T) per-step times.
    m:
        Temporal context length (history steps, inclusive of the current
        step t_c).
    k:
        Forecast horizon; the target is ``sum(y[tc+1 : tc+1+k])``.
    align_m:
        When comparing several context lengths, pass the *largest* m here
        so every model sees the same prediction instants (otherwise a
        smaller m gets extra early-run training windows and the comparison
        confounds context length with sample count).

    Returns
    -------
    (x, targets, groups):
        (n, m, H) windows, (n,) aggregate targets, (n,) run indices.
    """
    features = np.asarray(features, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, t, h = features.shape
    validate_window_params(t, m, k, align_m)
    tcs = np.arange((align_m or m) - 1, t - k)
    xs = []
    ys = []
    gs = []
    for tc in tcs:
        xs.append(features[:, tc - m + 1 : tc + 1, :])
        ys.append(y[:, tc + 1 : tc + 1 + k].sum(axis=1))
        gs.append(np.arange(n))
    return (
        np.concatenate(xs, axis=0),
        np.concatenate(ys, axis=0),
        np.concatenate(gs, axis=0),
    )
