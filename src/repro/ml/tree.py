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
axis, and a first-max ``argmax`` per feature and then across features
picks the same split as a strict-``>`` feature scan.
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

    def bin_upper_value(self, feature: int, bin_idx: int) -> float:
        """Numeric threshold equivalent of splitting after ``bin_idx``."""
        edges = self.edges_[feature]
        if len(edges) == 0:
            return np.inf
        return float(edges[min(bin_idx, len(edges) - 1)])


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
        self, binned: np.ndarray, y: np.ndarray
    ) -> "DecisionTreeRegressor":
        """Fit on pre-binned integer codes in ``[0, n_bins)`` (ensemble
        fast path)."""
        binned = np.asarray(binned)
        y = np.asarray(y, dtype=np.float64).ravel()
        if binned.ndim != 2 or len(binned) != len(y):
            raise ValueError("binned must be (n, h) and y length-n")
        nb = self.n_bins
        if binned.size and (
            not np.issubdtype(binned.dtype, np.integer)
            or binned.min() < 0
            or binned.max() >= nb
        ):
            # A stray code would land in the next feature's histogram.
            raise ValueError(f"binned codes must be integers in [0, {nb})")
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

        # Feature-major histogram keys: row f holds f * nb + code.
        keys = binned.T.astype(np.intp, order="C")
        keys += np.arange(h, dtype=np.intp)[:, None] * nb
        root = new_node()
        stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(n), 0)]
        min_leaf = self.min_samples_leaf

        while stack:
            node, idx, depth = stack.pop()
            ys = y[idx]
            total = ys.sum()
            count = len(idx)
            self._value[node] = total / count
            if depth >= self.max_depth or count < 2 * min_leaf or h == 0:
                continue
            base = total * total / count
            flat = np.take(keys, idx, axis=1).ravel()
            cnt = np.bincount(flat, minlength=h * nb).astype(np.float64)
            sm = np.bincount(flat, weights=np.tile(ys, h), minlength=h * nb)
            c_cnt = np.cumsum(cnt.reshape(h, nb), axis=1)[:, :-1]
            c_sum = np.cumsum(sm.reshape(h, nb), axis=1)[:, :-1]
            n_r = count - c_cnt
            valid = (c_cnt >= min_leaf) & (n_r >= min_leaf)
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = (
                    c_sum**2 / np.maximum(c_cnt, 1)
                    + (total - c_sum) ** 2 / np.maximum(n_r, 1)
                    - base
                )
            gain[~valid] = -np.inf
            # First-max bin per feature, then the first feature whose
            # best gain is largest and exceeds the split threshold.
            bins = np.argmax(gain, axis=1)
            best = gain[np.arange(h), bins]
            best = np.where(best > 1e-12, best, -np.inf)
            best_f = int(np.argmax(best))
            if best[best_f] == -np.inf:
                continue
            best_gain = float(best[best_f])
            best_bin = int(bins[best_f])
            go_left = binned[idx, best_f] <= best_bin
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

    # ------------------------------------------------------------------ #

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.binner is None:
            raise RuntimeError("tree was fitted on pre-binned data; use "
                               "predict_binned, or fit(x, y) first")
        return self.predict_binned(self.binner.transform(np.asarray(x, dtype=np.float64)))

    def predict_binned(self, binned: np.ndarray) -> np.ndarray:
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

    @property
    def node_count(self) -> int:
        return len(self._value)
