"""Frozen per-tree boosting loop, used as the ensemble's golden reference.

Verbatim copies of ``GradientBoostedRegressor.fit_binned``/
``predict_binned`` and ``DecisionTreeRegressor.predict_binned`` as they
were before the trees shared one set of histogram keys and reported
their fitted values: every tree copies ``binned[idx]`` and
``residual[idx]``, grows on the copy, and is then routed over all rows
by its own ``predict_binned``; prediction sums the trees one
``predict_binned`` at a time.  The only edits: the loop grows each tree
with :func:`tests.ml.legacy_split_search.legacy_fit_binned` (itself
pinned byte-equal to the production split search) and routes it with
:func:`legacy_tree_predict_binned`, so no production tree code runs.
``tests/ml/test_legacy_equivalence.py`` asserts the production ensemble
reproduces its trees, importances, scores and predictions byte for
byte.  Do not "modernise" this module — its value is that it does not
change.
"""

from __future__ import annotations

import numpy as np

from repro.ml.gbr import GradientBoostedRegressor
from repro.ml.tree import _LEAF, Binner, DecisionTreeRegressor
from tests.ml.legacy_split_search import legacy_fit_binned


def legacy_tree_predict_binned(
    tree: DecisionTreeRegressor, binned: np.ndarray
) -> np.ndarray:
    """One tree's per-row leaf values, routing only rows at internal
    nodes."""
    self = tree
    node = np.zeros(len(binned), dtype=np.int64)
    for _ in range(self.max_depth + 1):
        feat = self._nf[node]
        internal = feat != _LEAF
        if not internal.any():
            break
        rows = np.flatnonzero(internal)
        f = feat[rows]
        go_left = binned[rows, f] <= self._nb_arr[node[rows]]
        node[rows] = np.where(
            go_left, self._nl[node[rows]], self._nr[node[rows]]
        )
    return self._nv[node]


def legacy_gbr_fit_binned(
    est: GradientBoostedRegressor, binned: np.ndarray, y: np.ndarray, binner: Binner
) -> GradientBoostedRegressor:
    """Fit ``est`` with a copied subsample and a full predict per tree."""
    self = est
    y = np.asarray(y, dtype=np.float64).ravel()
    if binned.ndim != 2 or len(binned) != len(y):
        raise ValueError("binned must be (n, h) and y length-n")
    n, h = binned.shape
    rng = np.random.default_rng(self.random_state)
    self.binner_ = binner

    self.init_ = float(y.mean())
    pred = np.full(n, self.init_)
    self.trees_ = []
    self.train_score_ = []
    importances = np.zeros(h)

    sub_n = max(2 * self.min_samples_leaf, int(round(self.subsample * n)))
    sub_n = min(sub_n, n)
    for _ in range(self.n_estimators):
        residual = y - pred
        if self.subsample < 1.0:
            idx = rng.choice(n, size=sub_n, replace=False)
        else:
            idx = np.arange(n)
        tree = DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            n_bins=self.n_bins,
        )
        legacy_fit_binned(tree, binned[idx], residual[idx])
        pred += self.learning_rate * legacy_tree_predict_binned(tree, binned)
        self.trees_.append(tree)
        if tree.feature_importances_ is not None:
            importances += tree.feature_importances_
        self.train_score_.append(float(np.mean((y - pred) ** 2)))

    s = importances.sum()
    self.feature_importances_ = importances / s if s > 0 else importances
    return self


def legacy_gbr_predict_binned(
    est: GradientBoostedRegressor, binned: np.ndarray
) -> np.ndarray:
    """The ensemble's prediction, summed one tree at a time."""
    self = est
    pred = np.full(len(binned), self.init_)
    for tree in self.trees_:
        pred += self.learning_rate * legacy_tree_predict_binned(tree, binned)
    return pred
