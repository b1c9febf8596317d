"""Cross-validation splitters.

The paper uses 10-fold cross-validation for the deviation models (§IV-B)
and cross-validation splits for the forecasting MAPE (§IV-C).  Because
timesteps of the *same run* are correlated, the forecasting pipelines use
:class:`GroupKFold` with run indices as groups — holding out whole runs —
to avoid leakage.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np


class KFold:
    """Classic k-fold splitter with optional shuffling."""

    def __init__(
        self, n_splits: int = 10, shuffle: bool = True, seed: int = 0
    ) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.seed = seed

    def split(self, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (train_idx, test_idx) pairs over ``n`` samples."""
        if n < self.n_splits:
            raise ValueError(f"cannot split {n} samples into {self.n_splits} folds")
        idx = np.arange(n)
        if self.shuffle:
            np.random.default_rng(self.seed).shuffle(idx)
        for fold in np.array_split(idx, self.n_splits):
            train = np.setdiff1d(idx, fold, assume_unique=False)
            yield train, fold


class GroupKFold:
    """K-fold over groups: all samples of a group land in the same fold."""

    def __init__(self, n_splits: int = 5, seed: int = 0) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.seed = seed

    def split(
        self, groups: np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        groups = np.asarray(groups)
        uniq = np.unique(groups)
        if len(uniq) < self.n_splits:
            raise ValueError(
                f"{len(uniq)} groups cannot fill {self.n_splits} folds"
            )
        order = uniq.copy()
        np.random.default_rng(self.seed).shuffle(order)
        for fold_groups in np.array_split(order, self.n_splits):
            test = np.flatnonzero(np.isin(groups, fold_groups))
            train = np.flatnonzero(~np.isin(groups, fold_groups))
            yield train, test
