"""The FeatureStore: every derived view of a dataset, built exactly once.

Tier feature matrices, mean trends / mean-centered views, and
``(m, k, align_m)`` sliding-window tensors used to be recomputed
independently by every analysis module and every figure driver.  The
store builds each of them once per dataset:

* **in process** — memoized on the store instance, which
  :func:`get_store` attaches to the dataset object, so a campaign shared
  across figures shares every derived array;
* **on disk** — the expensive tensors (tier matrices, window stacks)
  persist under the campaign cache directory (``REPRO_CACHE_DIR``,
  default ``./.repro_cache``), reusing the hardened machinery from
  :mod:`repro.campaign.datasets`: atomic write-then-rename, an
  inter-process ``flock`` per dataset, and corrupt entries treated as
  warned misses that regenerate.

Cache key anatomy (see also ``docs/development.md``)::

    <cache-dir>/features/v<FEATURE_FORMAT_VERSION>/<dataset-fingerprint>/<token>.npz

The dataset fingerprint is ``sha256(campaign fingerprint, dataset key)``
when the dataset came out of a campaign run (the same fingerprint keys
the campaign cache and the experiment context use), or a content hash of
the dataset arrays for ad-hoc datasets.  The token encodes the feature
spec and, for window tensors, ``(m, k, align_m)``.  Bump
:data:`FEATURE_FORMAT_VERSION` when the derived-data layout changes —
old entries are then simply never hit.
"""

from __future__ import annotations

import hashlib
import os
import weakref
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.campaign.datasets import Campaign, FileLock, RunDataset
from repro.features.spec import LDMS_SPEC, FeatureSpec
from repro.features.windows import (
    build_windows,
    interleave_windows,
    validate_window_params,
)
from repro.graph.store import atomic_write, guarded_load
from repro.obs import METRICS, span

#: On-disk feature cache format version; folded into the entry path so a
#: layout change is an automatic miss.
FEATURE_FORMAT_VERSION = 1

#: The store's counters on the process-wide registry
#: (:data:`repro.obs.METRICS`): memo hits, disk hits, and misses, where a
#: miss is an actual feature build — a warm pipeline must show a zero
#: miss delta.  Instrument references stay valid across
#: ``METRICS.reset()``, so caching them here is safe.
_HITS = METRICS.counter("features.cache.hits")
_DISK_HITS = METRICS.counter("features.cache.disk_hits")
_MISSES = METRICS.counter("features.cache.misses")
_BUILD_SECONDS = METRICS.histogram("features.build.seconds")
#: Incremental-append accounting, per shard consumed: a shard whose
#: tensor came out of its own store's memo/disk is an append *hit*; a
#: shard that had to build is an append *miss*.  Appending one window to
#: a warm stream must show exactly one miss per consumed token.
_APPEND_HITS = METRICS.counter("features.append.hit")
_APPEND_MISSES = METRICS.counter("features.append.miss")

#: Live stores, for :func:`clear_feature_caches`.
_LIVE_STORES: "weakref.WeakSet[FeatureStore]" = weakref.WeakSet()


def feature_cache_enabled() -> bool:
    """Disk persistence toggle (``REPRO_FEATURE_CACHE=0`` disables)."""
    return os.environ.get("REPRO_FEATURE_CACHE", "1") not in ("0", "", "false")


class FeatureStore:
    """Memoized derived views of one :class:`RunDataset`."""

    def __init__(self, ds: RunDataset, persist: bool | None = None) -> None:
        self.ds = ds
        self.persist = feature_cache_enabled() if persist is None else persist
        self._memo: dict[str, dict[str, np.ndarray]] = {}
        self._fingerprint: str | None = None
        _LIVE_STORES.add(self)

    # ---- identity ------------------------------------------------------- #

    def fingerprint(self) -> str:
        """Stable identity of the dataset's arrays.

        Prefers the provenance stamp ``(campaign fingerprint, key)`` left
        by the campaign runner — the same fingerprint keys the campaign
        cache uses — and falls back to hashing the array contents for
        datasets built by hand (tests, ad-hoc studies).
        """
        if self._fingerprint is None:
            camp_fp = getattr(self.ds, "campaign_fingerprint", None)
            h = hashlib.sha256()
            if camp_fp is not None:
                h.update(f"{camp_fp}/{self.ds.key}".encode())
            else:
                h.update(self.ds.key.encode())
                for arr in (self._base("Y"), self._base("X"), self._base("ldms"),
                            self.ds.placement):
                    h.update(str(arr.shape).encode())
                    h.update(np.ascontiguousarray(arr).tobytes())
            self._fingerprint = h.hexdigest()[:16]
        return self._fingerprint

    def cache_root(self) -> Path:
        return (
            Campaign.cache_dir()
            / "features"
            / f"v{FEATURE_FORMAT_VERSION}"
            / self.fingerprint()
        )

    def clear(self) -> None:
        """Drop the in-process memo (disk entries stay)."""
        self._memo.clear()

    # ---- raw array assembly (stacked once, not counted as features) ----- #

    def _base(self, which: str) -> np.ndarray:
        key = f"_base-{which}"
        entry = self._memo.get(key)
        if entry is None:
            entry = {"x": getattr(self.ds, which)}
            self._memo[key] = entry
        return entry["x"]

    # ---- incremental append (streamed datasets) -------------------------- #

    def _shard_stores(self) -> "list[FeatureStore] | None":
        """Per-shard stores of a streamed dataset, or ``None``.

        The append path only engages for genuinely multi-shard datasets
        whose every shard carries a provenance stamp — the degenerate
        single-shard case (and any hand-built dataset) stays on the
        monolithic path, byte-identical to the pre-streaming behaviour
        with unchanged cache keys.
        """
        views = getattr(self.ds, "shard_views", None)
        if not views or len(views) < 2:
            return None
        if any(
            getattr(v, "campaign_fingerprint", None) is None for v in views
        ):
            return None
        return [get_store(v, persist=self.persist) for v in views]

    def _from_shards(
        self, token: str, shards: "list[FeatureStore]", per_shard, combine
    ) -> dict[str, np.ndarray]:
        """Assemble one derived view shard-by-shard.

        Each shard's tensor comes from *its own* store — memoized in
        process and persisted under the shard's fingerprint, so the
        entries are shared with direct runs of that window's campaign.
        Only the cheap combined view is memoized here (never written to
        disk: the shard is the persisted unit, which is what makes
        appending window N+1 recompute exactly one shard per token).
        """
        entry = self._memo.get(token)
        if entry is not None:
            _HITS.inc()
            return entry
        parts = []
        for store in shards:
            before = _MISSES.value
            parts.append(per_shard(store))
            if _MISSES.value > before:
                _APPEND_MISSES.inc()
            else:
                _APPEND_HITS.inc()
        entry = combine(parts)
        self._memo[token] = entry
        return entry

    # ---- memo/disk plumbing --------------------------------------------- #

    def _get(self, token: str, build, disk: bool = True) -> dict[str, np.ndarray]:
        entry = self._memo.get(token)
        if entry is not None:
            _HITS.inc()
            return entry
        if disk and self.persist:
            with span("features.disk_load", token=token, dataset=self.ds.key):
                entry = self._disk_load(token)
            if entry is not None:
                _DISK_HITS.inc()
                self._memo[token] = entry
                return entry
        _MISSES.inc()
        with span("features.build", token=token, dataset=self.ds.key) as sp:
            t0 = perf_counter()
            entry = build()
            _BUILD_SECONDS.observe(perf_counter() - t0)
            sp.set(persisted=bool(disk and self.persist))
        self._memo[token] = entry
        if disk and self.persist:
            self._disk_save(token, entry)
        return entry

    def _disk_load(self, token: str) -> dict[str, np.ndarray] | None:
        def reader(path: Path) -> dict[str, np.ndarray]:
            with np.load(path) as npz:
                return {name: npz[name] for name in npz.files}

        return guarded_load(
            self.cache_root() / f"{token}.npz", reader, "feature cache"
        )

    def _disk_save(self, token: str, entry: dict[str, np.ndarray]) -> None:
        # Unwritable cache dir degrades to memo-only (atomic_write warns).
        atomic_write(
            self.cache_root() / f"{token}.npz",
            lambda fh: np.savez_compressed(fh, **entry),
            lock=FileLock(self.cache_root().parent / f"{self.fingerprint()}.lock"),
            fail_msg=f"feature cache write failed for {token}",
        )

    # ---- tier matrices --------------------------------------------------- #

    def features(self, spec: "str | FeatureSpec") -> np.ndarray:
        """(N, T, H) feature tensor for a spec or tier name.

        Streamed datasets assemble per shard: the run axis is the shard
        concatenation order, so stacking the per-shard matrices is
        byte-identical to building over the combined dataset.
        """
        spec = FeatureSpec.resolve(spec)
        shards = self._shard_stores()
        if shards is not None:
            return self._from_shards(
                f"tier-{spec.token}",
                shards,
                lambda s: s.features(spec),
                lambda parts: {"x": np.concatenate(parts, axis=0)},
            )["x"]
        return self._get(
            f"tier-{spec.token}", lambda: {"x": spec.matrix(self.ds)}
        )["x"]

    def feature_names(self, spec: "str | FeatureSpec") -> list[str]:
        """Column labels, guaranteed consistent with :meth:`features`."""
        return FeatureSpec.resolve(spec).feature_names()

    # ---- mean-centering (paper §IV-B) ------------------------------------ #

    def mean_trends(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-step means over runs: (T, 13) counters, (T,) times."""
        entry = self._get(
            "mean-trends",
            lambda: dict(
                zip(("xm", "ym"), (self._base("X").mean(axis=0),
                                   self._base("Y").mean(axis=0)))
            ),
        )
        return entry["xm"], entry["ym"]

    def mean_centered(self) -> tuple[np.ndarray, np.ndarray]:
        """X̂, Ŷ with per-step mean trends removed."""
        def build() -> dict[str, np.ndarray]:
            xm, ym = self.mean_trends()
            return {
                "xh": self._base("X") - xm[None, :, :],
                "yh": self._base("Y") - ym[None, :],
            }

        entry = self._get("mean-centered", build)
        return entry["xh"], entry["yh"]

    def flat_mean_centered(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(NT, H) counters, (NT,) deviations, (NT,) per-sample mean trend.

        The deviation-model sample layout (§IV-B): each step of each run
        is one row; ``offsets`` restores absolute times for MAPE.
        """
        def build() -> dict[str, np.ndarray]:
            xh, yh = self.mean_centered()
            n, t, h = xh.shape
            _, ym = self.mean_trends()
            return {
                "x": xh.reshape(n * t, h),
                "y": yh.reshape(n * t),
                "offsets": np.tile(ym, n),
            }

        entry = self._get("flat-mean-centered", build, disk=False)
        return entry["x"], entry["y"], entry["offsets"]

    # ---- sliding windows (paper Fig. 6) ----------------------------------- #

    def windows(
        self,
        spec: "str | FeatureSpec",
        m: int,
        k: int,
        align_m: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Memoized ``build_windows`` over a tier view, targets = step times.

        Streamed datasets build the window tensors per shard and
        interleave the per-instant blocks back into the monolithic
        tc-major order (:func:`~repro.features.windows.interleave_windows`)
        — byte-identical to the one-shot build, while appending a window
        reuses every existing shard tensor from its own cache.
        """
        spec = FeatureSpec.resolve(spec)
        validate_window_params(self.ds.num_steps, m, k, align_m)
        token = f"win-{spec.token}-m{m}-k{k}-a{align_m if align_m is not None else m}"

        shards = self._shard_stores()
        if shards is not None:
            counts = [len(s.ds) for s in shards]

            def combine(parts):
                x, y, groups = interleave_windows(parts, counts)
                return {"x": x, "y": y, "groups": groups}

            entry = self._from_shards(
                token,
                shards,
                lambda s: s.windows(spec, m, k, align_m=align_m),
                combine,
            )
            return entry["x"], entry["y"], entry["groups"]

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

        shards = self._shard_stores()
        if shards is not None:
            counts = [len(s.ds) for s in shards]

            def combine(parts):
                x, y, groups = interleave_windows(parts, counts)
                return {"x": x, "y": y, "groups": groups}

            entry = self._from_shards(
                token,
                shards,
                lambda s: s.channel_windows(channel, m, k, align_m=align_m),
                combine,
            )
            return entry["x"], entry["y"], entry["groups"]

        def build() -> dict[str, np.ndarray]:
            feats = self.features(LDMS_SPEC)
            x, y, groups = build_windows(feats, feats[:, :, ci], m, k, align_m=align_m)
            return {"x": x, "y": y, "groups": groups}

        entry = self._get(token, build)
        return entry["x"], entry["y"], entry["groups"]


def get_store(ds: RunDataset, persist: bool | None = None) -> FeatureStore:
    """The dataset's store, created on first use and attached to it.

    Attaching to the dataset object makes the memo shared by construction:
    every analysis and figure that receives the same campaign sees the
    same store.
    """
    store = getattr(ds, "_feature_store", None)
    if store is None:
        store = FeatureStore(ds, persist=persist)
        ds._feature_store = store
    return store


def clear_feature_caches() -> None:
    """Drop every live store's in-process memo (disk entries stay)."""
    for store in list(_LIVE_STORES):
        store.clear()
