"""Histogram-based decision-tree regression (the GBR base learner).

Features are quantile-binned once (uint8 codes); the split search at
each node is then one flattened ``(feature, bin)`` histogram — two
``bincount`` calls and a row-wise cumulative scan over all features at
once — the same design as LightGBM/sklearn's ``HistGradientBoosting``,
scaled down.  Gradient boosting fits hundreds of trees per dataset, so
this vectorisation is what keeps the Fig. 9 RFE sweep tractable.

The flattened search is bit-identical to scanning features one at a
time: ``bincount`` adds weights in entry order (each bin's sum sees its
rows in the same order), ``cumsum`` accumulates sequentially along its
axis, and taking the first feature with the largest best gain, then
that feature's first-max bin, picks the same split as a strict-``>``
feature scan.  Bins with fewer than ``min_samples_leaf`` rows on a side
are masked to -inf before any comparison, so whatever their division by
a zero count gave never matters.

Ensembles share one set of codes (:meth:`DecisionTreeRegressor.fit_binned`
keywords): the caller builds the :func:`histogram_keys` once, and each
tree grows on its sample's row ids, in sample order, instead of on a
copy of those rows.  Every node's histogram then sees the same rows in
the same order as a fit on the copy, so the trees are bit-identical.
While it splits, the tree also routes the rows outside its sample and
writes every row's leaf value into the caller's ``fitted`` buffer —
exactly what ``predict_binned`` on all rows would return, without the
extra routing pass.  :func:`leaf_values` routes many trees at once for
prediction; routing only compares codes, so it is exact too.
"""

from __future__ import annotations

import numpy as np

#: Sentinel for leaves in the node arrays.
_LEAF = -1


class Binner:
    """Quantile binning shared by all trees of an ensemble."""

    def __init__(self, n_bins: int = 64) -> None:
        if not 2 <= n_bins <= 256:
            raise ValueError("n_bins must be in [2, 256]")
        self.n_bins = n_bins
        self.edges_: list[np.ndarray] | None = None

    def fit(self, x: np.ndarray) -> "Binner":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("x must be 2-D (n_samples, n_features)")
        qs = np.linspace(0, 1, self.n_bins + 1)[1:-1]
        self.edges_ = [
            np.unique(np.quantile(x[:, f], qs)) for f in range(x.shape[1])
        ]
        return self

    #: Row-chunk size for the vectorized transform (bounds the transient
    #: (rows, H, E) comparison tensor to a few MB).
    _CHUNK_ROWS = 4096

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.edges_ is None:
            raise RuntimeError("binner is not fitted")
        x = np.asarray(x, dtype=np.float64)
        lens = {len(e) for e in self.edges_}
        # Fast path: when every feature kept the same number of edges
        # (the common case — deduplication only shrinks constant-ish
        # columns), one broadcast comparison replaces the per-feature
        # searchsorted loop.  ``searchsorted(edges, v, 'right')`` is the
        # count of edges <= v for sorted edges, except for NaN (which
        # sorts last) — so NaN rows take the reference loop.
        if len(lens) == 1 and next(iter(lens)) > 0 and not np.isnan(x).any():
            edges = np.stack(self.edges_)  # (H, E)
            out = np.empty(x.shape, dtype=np.uint8)
            for lo in range(0, len(x), self._CHUNK_ROWS):
                chunk = x[lo : lo + self._CHUNK_ROWS]
                np.sum(
                    chunk[:, :, None] >= edges[None, :, :],
                    axis=2,
                    dtype=np.uint8,
                    out=out[lo : lo + len(chunk)],
                )
            return out
        out = np.empty(x.shape, dtype=np.uint8)
        for f, edges in enumerate(self.edges_):
            out[:, f] = np.searchsorted(edges, x[:, f], side="right")
        return out

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)

    def subset(self, features: "list[int] | np.ndarray") -> "Binner":
        """A fitted binner over a column subset.

        Quantile edges are computed per feature, so the binner fitted on
        ``x[:, features]`` is exactly this binner restricted to those
        columns — the identity the RFE sweep exploits to bin each fold
        once and refit nested subsets by column slicing.
        """
        if self.edges_ is None:
            raise RuntimeError("binner is not fitted")
        sub = Binner(self.n_bins)
        sub.edges_ = [self.edges_[int(f)] for f in features]
        return sub


class DecisionTreeRegressor:
    """CART regression tree over binned features (squared-error split)."""

    def __init__(
        self,
        max_depth: int = 3,
        min_samples_leaf: int = 5,
        n_bins: int = 64,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.n_bins = n_bins
        self.binner: Binner | None = None
        # Flat node arrays (grown dynamically).
        self._feature: list[int] = []
        self._split_bin: list[int] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._value: list[float] = []
        self.feature_importances_: np.ndarray | None = None

    # ------------------------------------------------------------------ #

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.ndim != 2 or len(x) != len(y):
            raise ValueError("x must be (n, h) and y length-n")
        self.binner = Binner(self.n_bins).fit(x)
        return self.fit_binned(self.binner.transform(x), y)

    def fit_binned(
        self,
        binned: np.ndarray,
        y: np.ndarray,
        *,
        rows: "np.ndarray | None" = None,
        fitted: "np.ndarray | None" = None,
        keys: "np.ndarray | None" = None,
    ) -> "DecisionTreeRegressor":
        """Fit on pre-binned integer codes in ``[0, n_bins)`` (ensemble
        fast path).

        The keywords let an ensemble grow many trees on one set of
        codes without copying them (see the module docstring):

        * ``keys`` -- :func:`histogram_keys` of ``binned``, built (and the
          codes validated) once by the caller;
        * ``rows`` -- the ids of the rows to grow on, in sample order
          (default: every row); ``y`` stays indexed like ``binned``;
        * ``fitted`` -- a length-n buffer that receives every row's leaf
          value, rows outside ``rows`` included.
        """
        binned = np.asarray(binned)
        y = np.asarray(y, dtype=np.float64).ravel()
        if binned.ndim != 2 or len(binned) != len(y):
            raise ValueError("binned must be (n, h) and y length-n")
        if keys is None:
            keys = histogram_keys(binned, self.n_bins)
        n, h = binned.shape
        if rows is None:
            rows = np.arange(n)
        # Rows outside the sample only follow the splits to their leaf.
        rest = None
        if fitted is not None and len(rows) < n:
            outside = np.ones(n, dtype=bool)
            outside[rows] = False
            rest = np.flatnonzero(outside)
        gains = np.zeros(h)
        feature, split_bin = [_LEAF], [0]
        left, right, value = [_LEAF], [_LEAF], [0.0]
        stack: list = [(0, rows, rest, 0)]

        while stack:
            node, idx, rest, depth = stack.pop()
            ys = y[idx]
            total = ys.sum()
            count = len(idx)
            value[node] = total / count
            split = None
            if (
                depth < self.max_depth
                and count >= 2 * self.min_samples_leaf
                and h
            ):
                split = self._best_split(keys, idx, ys, total)
            if split is None:
                if fitted is not None:
                    fitted[idx] = value[node]
                    if rest is not None:
                        fitted[rest] = value[node]
                continue
            best_f, best_bin, best_gain, go_left = split
            l_rest = r_rest = None
            if rest is not None:
                rest_left = keys[best_f].take(rest) <= best_f * self.n_bins + best_bin
                l_rest, r_rest = rest[rest_left], rest[~rest_left]
            gains[best_f] += best_gain
            feature[node] = best_f
            split_bin[node] = best_bin
            l_node = len(value)
            left[node], right[node] = l_node, l_node + 1
            feature += [_LEAF, _LEAF]
            split_bin += [0, 0]
            left += [_LEAF, _LEAF]
            right += [_LEAF, _LEAF]
            value += [0.0, 0.0]
            stack.append((l_node, idx[go_left], l_rest, depth + 1))
            stack.append((l_node + 1, idx[~go_left], r_rest, depth + 1))

        s = gains.sum()
        self.feature_importances_ = gains / s if s > 0 else gains
        self._feature, self._split_bin = feature, split_bin
        self._left, self._right, self._value = left, right, value
        # Freeze node arrays.
        self._nf = np.asarray(feature)
        self._nb_arr = np.asarray(split_bin)
        self._nl = np.asarray(left)
        self._nr = np.asarray(right)
        self._nv = np.asarray(value)
        return self

    def _best_split(self, keys, idx, ys, total):
        """``(feature, bin, gain, go_left)`` of the node's best split, or
        None when no split clears the gain threshold."""
        h, count, nb = len(keys), len(idx), self.n_bins
        min_leaf = self.min_samples_leaf
        flat = keys.take(idx, axis=1).ravel()
        c_cnt = np.bincount(flat, minlength=h * nb).reshape(h, nb)
        c_cnt = c_cnt.cumsum(axis=1)[:, :-1]
        weights = ys[None].repeat(h, axis=0).ravel()
        c_sum = np.bincount(flat, weights=weights, minlength=h * nb)
        c_sum = c_sum.reshape(h, nb).cumsum(axis=1)[:, :-1]
        n_r = count - c_cnt
        valid = (c_cnt >= min_leaf) & (n_r >= min_leaf)
        # Bins outside ``valid`` may divide by zero; they are masked to
        # -inf before any comparison.
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = c_sum**2 / c_cnt + (total - c_sum) ** 2 / n_r - total * total / count
        gain = np.where(valid, gain, -np.inf)
        # The first feature whose best gain is largest, then its first-max
        # bin.
        per_feature = gain.max(axis=1)
        best_f = int(per_feature.argmax())
        best_gain = per_feature[best_f]
        if not best_gain > 1e-12:
            return None
        best_bin = int(gain[best_f].argmax())
        seg = flat[best_f * count : (best_f + 1) * count]
        return best_f, best_bin, best_gain, seg <= best_f * nb + best_bin

    # ------------------------------------------------------------------ #

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.binner is None:
            raise RuntimeError("tree was fitted on pre-binned data; use "
                               "predict_binned, or fit(x, y) first")
        return self.predict_binned(self.binner.transform(np.asarray(x, dtype=np.float64)))

    def predict_binned(self, binned: np.ndarray) -> np.ndarray:
        binned = check_code_width(binned, self.feature_importances_)
        return leaf_values([self], binned)[0]

    @property
    def node_count(self) -> int:
        return len(self._value)


def histogram_keys(binned: np.ndarray, n_bins: int) -> np.ndarray:
    """Validate ``(n, h)`` codes and return their histogram keys.

    The keys are feature-major ``(h, n)``: row f holds ``f * n_bins +
    code``, so one ``bincount`` over a node's gathered keys histograms
    every feature at once.
    """
    if binned.size and (
        not np.issubdtype(binned.dtype, np.integer)
        or binned.min() < 0
        or binned.max() >= n_bins
    ):
        # A stray code would land in the next feature's histogram.
        raise ValueError(f"binned codes must be integers in [0, {n_bins})")
    keys = binned.T.astype(np.intp, order="C")
    keys += np.arange(binned.shape[1], dtype=np.intp)[:, None] * n_bins
    return keys


def check_code_width(
    binned: np.ndarray, importances: "np.ndarray | None"
) -> np.ndarray:
    """``binned`` as a 2-D array with one column per fitted feature."""
    if importances is None:
        raise RuntimeError("model is not fitted")
    binned = np.asarray(binned)
    h = len(importances)
    if binned.ndim != 2 or binned.shape[1] != h:
        raise ValueError(
            f"binned codes must be (n, {h}) for a model fitted on {h} "
            f"features, got shape {binned.shape}"
        )
    return binned


def leaf_values(
    trees: "list[DecisionTreeRegressor]", binned: np.ndarray
) -> np.ndarray:
    """Every tree's leaf value for every row, as a ``(len(trees), n)``
    array.

    The trees route together over their stacked node arrays.  Each leaf
    points to itself, so every row can take the same number of steps.
    Routing only compares codes, so the values are exactly those a
    per-tree walk returns.
    """
    counts = np.array([tree.node_count for tree in trees])
    first = np.cumsum(counts) - counts
    feature = np.concatenate([tree._nf for tree in trees])
    value = np.concatenate([tree._nv for tree in trees])
    n, h = binned.shape
    node = np.repeat(first[:, None], n, axis=1)
    leaf = feature == _LEAF
    if not leaf.all():
        ids = np.arange(len(feature))
        shift = np.repeat(first, counts)
        left = np.where(leaf, ids, np.concatenate([t._nl for t in trees]) + shift)
        right = np.where(leaf, ids, np.concatenate([t._nr for t in trees]) + shift)
        feature[leaf] = 0
        split_bin = np.concatenate([tree._nb_arr for tree in trees])
        codes = np.ascontiguousarray(binned).ravel()
        row_start = np.arange(n) * h
        for _ in range(max(tree.max_depth for tree in trees)):
            go_left = codes[row_start + feature[node]] <= split_bin[node]
            node = np.where(go_left, left[node], right[node])
    return value[node]
