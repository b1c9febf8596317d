"""The FeatureStore: every derived view of a dataset, built once per process.

Tier feature matrices, mean-centered samples and ``(m, k, align_m)``
sliding-window tensors used to be recomputed independently by every
analysis module and every figure driver.  The store memoizes each of
them on the store instance, which :func:`get_store` attaches to the
dataset object, so a campaign shared across figures shares every
derived array.

Nothing is written to disk.  Each view is a cheap expression over
arrays the caller already holds in memory, and rebuilding one costs less
than reading it back from a compressed file (``docs/performance.md``
has the measurements).  What persists is the measured source data (the
campaign cache) and the stage outputs (the artifact store).
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.campaign.datasets import RunDataset
from repro.features.spec import LDMS_SPEC, FeatureSpec
from repro.features.windows import build_windows, validate_window_params
from repro.obs import METRICS, span

#: The store's counters on the process-wide registry
#: (:data:`repro.obs.METRICS`): memo hits and misses, where a miss is an
#: actual feature build — a warm pipeline must show a zero miss delta.
#: Instrument references stay valid across ``METRICS.reset()``, so
#: caching them here is safe.
_HITS = METRICS.counter("features.cache.hits")
_MISSES = METRICS.counter("features.cache.misses")

#: Live stores, for :func:`clear_feature_caches`.
_LIVE_STORES: "weakref.WeakSet[FeatureStore]" = weakref.WeakSet()


class FeatureStore:
    """Memoized derived views of one :class:`RunDataset`."""

    def __init__(self, ds: RunDataset) -> None:
        self.ds = ds
        self._memo: dict[str, dict[str, np.ndarray]] = {}
        _LIVE_STORES.add(self)

    def clear(self) -> None:
        """Drop the in-process memo."""
        self._memo.clear()

    # ---- raw array assembly (stacked once, not counted as features) ----- #

    def _base(self, which: str) -> np.ndarray:
        key = f"_base-{which}"
        entry = self._memo.get(key)
        if entry is None:
            entry = {"x": getattr(self.ds, which)}
            self._memo[key] = entry
        return entry["x"]

    # ---- memo plumbing --------------------------------------------------- #

    def _get(self, token: str, build) -> dict[str, np.ndarray]:
        entry = self._memo.get(token)
        if entry is not None:
            _HITS.inc()
            return entry
        _MISSES.inc()
        with span("features.build", token=token, dataset=self.ds.key):
            entry = build()
        self._memo[token] = entry
        return entry

    # ---- tier matrices --------------------------------------------------- #

    def features(self, spec: "str | FeatureSpec") -> np.ndarray:
        """(N, T, H) feature tensor for a spec or tier name."""
        spec = FeatureSpec.resolve(spec)
        return self._get(
            f"tier-{spec.token}", lambda: {"x": spec.matrix(self.ds)}
        )["x"]

    def feature_names(self, spec: "str | FeatureSpec") -> list[str]:
        """Column labels, guaranteed consistent with :meth:`features`."""
        return FeatureSpec.resolve(spec).feature_names()

    # ---- mean-centering (paper §IV-B) ------------------------------------ #

    def flat_mean_centered(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(NT, H) counters, (NT,) deviations, (NT,) per-sample mean trend.

        The deviation-model sample layout (§IV-B): each step of each run
        is one row; ``offsets`` restores absolute times for MAPE.
        """
        def build() -> dict[str, np.ndarray]:
            xh, yh = self.ds.mean_centered()
            n, t, h = xh.shape
            _, ym = self.ds.mean_trends()
            return {
                "x": xh.reshape(n * t, h),
                "y": yh.reshape(n * t),
                "offsets": np.tile(ym, n),
            }

        entry = self._get("flat-mean-centered", build)
        return entry["x"], entry["y"], entry["offsets"]

    # ---- sliding windows (paper Fig. 6) ----------------------------------- #

    def windows(
        self,
        spec: "str | FeatureSpec",
        m: int,
        k: int,
        align_m: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Memoized ``build_windows`` over a tier view, targets = step times."""
        spec = FeatureSpec.resolve(spec)
        validate_window_params(self.ds.num_steps, m, k, align_m)
        token = f"win-{spec.token}-m{m}-k{k}-a{align_m if align_m is not None else m}"

        def build() -> dict[str, np.ndarray]:
            x, y, groups = build_windows(
                self.features(spec), self._base("Y"), m, k, align_m=align_m
            )
            return {"x": x, "y": y, "groups": groups}

        entry = self._get(token, build)
        return entry["x"], entry["y"], entry["groups"]

    def channel_windows(
        self, channel: str, m: int, k: int, align_m: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """LDMS windows whose target is one channel's future sum.

        The system-state forecasting view (§V-C closing proposal): x is
        the full (m, 8) LDMS window, the target is
        ``sum(channel[tc+1 : tc+1+k])``.
        """
        names = LDMS_SPEC.feature_names()
        if channel not in names:
            raise ValueError(
                f"unknown channel {channel!r}; expected one of {names}"
            )
        ci = names.index(channel)
        validate_window_params(self.ds.num_steps, m, k, align_m)
        token = f"win-ldms-ch{ci}-m{m}-k{k}-a{align_m if align_m is not None else m}"

        def build() -> dict[str, np.ndarray]:
            feats = self.features(LDMS_SPEC)
            x, y, groups = build_windows(feats, feats[:, :, ci], m, k, align_m=align_m)
            return {"x": x, "y": y, "groups": groups}

        entry = self._get(token, build)
        return entry["x"], entry["y"], entry["groups"]


def get_store(ds: RunDataset) -> FeatureStore:
    """The dataset's store, created on first use and attached to it.

    Attaching to the dataset object makes the memo shared by construction:
    every analysis and figure that receives the same campaign sees the
    same store.
    """
    store = getattr(ds, "_feature_store", None)
    if store is None:
        store = FeatureStore(ds)
        ds._feature_store = store
    return store


def clear_feature_caches() -> None:
    """Drop every live store's in-process memo."""
    for store in list(_LIVE_STORES):
        store.clear()
