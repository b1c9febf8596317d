"""Gradient boosted regression (Friedman 2001; paper §IV-B, Eq. 2–3).

Least-squares boosting: each stage fits a shallow histogram tree to the
negative gradient of the loss (for L2, the residual), and the ensemble is
the learning-rate-weighted sum.  Feature importances are the gain totals
accumulated over all trees — the quantity RFE eliminates on.

The fit validates the codes and builds their histogram keys once; every
tree grows on its subsample's row ids into those shared keys and hands
back its fitted values (see :mod:`repro.ml.tree`).  Prediction routes all
trees at once and then adds their scaled leaf values one tree at a time,
in tree order, from ``init_`` — the order of a per-tree loop, so the sums
keep their bits.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import (
    Binner,
    DecisionTreeRegressor,
    check_code_width,
    histogram_keys,
    leaf_values,
)


class GradientBoostedRegressor:
    """L2 gradient boosting over histogram trees."""

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.08,
        max_depth: int = 3,
        min_samples_leaf: int = 5,
        subsample: float = 0.8,
        n_bins: int = 64,
        random_state: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0 < learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0 < subsample <= 1:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.n_bins = n_bins
        self.random_state = random_state
        self.trees_: list[DecisionTreeRegressor] = []
        self.init_: float = 0.0
        self.binner_: Binner | None = None
        self.feature_importances_: np.ndarray | None = None
        self.train_score_: list[float] = []

    # ------------------------------------------------------------------ #

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GradientBoostedRegressor":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.ndim != 2 or len(x) != len(y):
            raise ValueError("x must be (n, h) and y length-n")
        binner = Binner(self.n_bins).fit(x)
        return self.fit_binned(binner.transform(x), y, binner)

    def fit_binned(
        self, binned: np.ndarray, y: np.ndarray, binner: Binner
    ) -> "GradientBoostedRegressor":
        """Fit on pre-binned uint8 codes (the RFE subset-fit fast path).

        ``binner`` must be the fitted binner that produced ``binned``
        (or a :meth:`Binner.subset` of one, with ``binned`` column-
        sliced to match) — it is stored for :meth:`predict`.  Because
        quantile edges are per-feature, ``fit(x[:, cols], y)`` and
        ``fit_binned(codes[:, cols], y, binner.subset(cols))`` produce
        bit-identical models.
        """
        binned = np.asarray(binned)
        y = np.asarray(y, dtype=np.float64).ravel()
        if binned.ndim != 2 or len(binned) != len(y):
            raise ValueError("binned must be (n, h) and y length-n")
        keys = histogram_keys(binned, self.n_bins)
        n, h = binned.shape
        rng = np.random.default_rng(self.random_state)
        self.binner_ = binner

        self.init_ = float(y.mean())
        pred = np.full(n, self.init_)
        residual = y - pred
        fitted = np.empty(n)
        self.trees_ = []
        self.train_score_ = []
        importances = np.zeros(h)

        sub_n = max(2 * self.min_samples_leaf, int(round(self.subsample * n)))
        sub_n = min(sub_n, n)
        every_row = np.arange(n)
        for _ in range(self.n_estimators):
            if self.subsample < 1.0:
                idx = rng.choice(n, size=sub_n, replace=False)
            else:
                idx = every_row
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                n_bins=self.n_bins,
            )
            tree.fit_binned(binned, residual, rows=idx, fitted=fitted, keys=keys)
            pred += self.learning_rate * fitted
            self.trees_.append(tree)
            importances += tree.feature_importances_
            residual = y - pred
            # ``np.mean`` is this sum divided by n.
            self.train_score_.append(float((residual**2).sum() / n))

        s = importances.sum()
        self.feature_importances_ = importances / s if s > 0 else importances
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.binner_ is None:
            raise RuntimeError("model is not fitted")
        x = np.asarray(x, dtype=np.float64)
        return self.predict_binned(self.binner_.transform(x))

    def predict_binned(self, binned: np.ndarray) -> np.ndarray:
        """Predict from codes already binned with this model's binner.

        All trees route at once (:func:`~repro.ml.tree.leaf_values`);
        their scaled leaf values are then added one tree at a time, in
        tree order, starting from ``init_`` -- the order a per-tree loop
        adds them in.  (One ``add.reduce`` over the trees would sum a
        single row pairwise and change its bits.)
        """
        binned = check_code_width(binned, self.feature_importances_)
        steps = self.learning_rate * leaf_values(self.trees_, binned)
        pred = np.full(len(binned), self.init_)
        for step in steps:
            pred += step
        return pred
