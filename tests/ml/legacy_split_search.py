"""Frozen per-feature split search, used as the tree's golden reference.

A verbatim copy of ``DecisionTreeRegressor.fit_binned`` as it was before
the split search was flattened into one ``(feature, bin)`` histogram per
node: two ``bincount`` calls and two cumulative scans per feature, and a
strict-``>`` scan across features.  ``tests/ml/test_legacy_equivalence.py``
asserts the production tree reproduces its node arrays byte for byte.
Do not "modernise" this module — its value is that it does not change.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import _LEAF, DecisionTreeRegressor


def legacy_fit_binned(
    tree: DecisionTreeRegressor, binned: np.ndarray, y: np.ndarray
) -> DecisionTreeRegressor:
    """Fit ``tree`` on pre-binned codes with the per-feature loop."""
    self = tree
    n, h = binned.shape
    gains = np.zeros(h)
    self._feature, self._split_bin = [], []
    self._left, self._right, self._value = [], [], []

    def new_node() -> int:
        self._feature.append(_LEAF)
        self._split_bin.append(0)
        self._left.append(_LEAF)
        self._right.append(_LEAF)
        self._value.append(0.0)
        return len(self._value) - 1

    root = new_node()
    stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(n), 0)]
    min_leaf = self.min_samples_leaf
    nb = self.n_bins

    while stack:
        node, idx, depth = stack.pop()
        ys = y[idx]
        total = ys.sum()
        count = len(idx)
        self._value[node] = total / count
        if depth >= self.max_depth or count < 2 * min_leaf:
            continue
        base = total * total / count
        best_gain = 1e-12
        best_f = -1
        best_bin = -1
        sub = binned[idx]
        for f in range(h):
            codes = sub[:, f]
            cnt = np.bincount(codes, minlength=nb).astype(np.float64)
            sm = np.bincount(codes, weights=ys, minlength=nb)
            c_cnt = np.cumsum(cnt)[:-1]
            c_sum = np.cumsum(sm)[:-1]
            n_r = count - c_cnt
            valid = (c_cnt >= min_leaf) & (n_r >= min_leaf)
            if not valid.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = (
                    c_sum**2 / np.maximum(c_cnt, 1)
                    + (total - c_sum) ** 2 / np.maximum(n_r, 1)
                    - base
                )
            gain[~valid] = -np.inf
            b = int(np.argmax(gain))
            if gain[b] > best_gain:
                best_gain = float(gain[b])
                best_f = f
                best_bin = b
        if best_f < 0:
            continue
        go_left = sub[:, best_f] <= best_bin
        li, ri = idx[go_left], idx[~go_left]
        gains[best_f] += best_gain
        self._feature[node] = best_f
        self._split_bin[node] = best_bin
        l_node = new_node()
        r_node = new_node()
        self._left[node] = l_node
        self._right[node] = r_node
        stack.append((l_node, li, depth + 1))
        stack.append((r_node, ri, depth + 1))

    s = gains.sum()
    self.feature_importances_ = gains / s if s > 0 else gains
    # Freeze node arrays.
    self._nf = np.asarray(self._feature)
    self._nb_arr = np.asarray(self._split_bin)
    self._nl = np.asarray(self._left)
    self._nr = np.asarray(self._right)
    self._nv = np.asarray(self._value)
    return self
