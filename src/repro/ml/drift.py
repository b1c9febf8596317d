"""Rolling-window retraining and drift evaluation over streamed shards.

A streamed campaign (see :mod:`repro.campaign.streaming`) exposes its
datasets as ordered time-window shards.  The natural operational
question is **model drift**: how much worse does a forecaster trained
once on window 0 get on later windows than a forecaster retrained on
the window just before?  This module scores both policies per window:

* **fresh** — trained on window ``w - 1``, evaluated on window ``w``
  (the rolling-retrain policy an incremental facility would run);
* **stale** — trained on window 0, evaluated on window ``w`` (the
  train-once policy the one-shot campaign implies).

Every evaluation repeats over seeds, and the report carries variance
alongside means (the k-fold style of the forecasting grids): a drift
claim without spread is indistinguishable from seed noise.

:func:`rolling_drift` is the pure in-process driver; the memoized,
shard-addressed version lives in
:mod:`repro.experiments.stream_drift`, whose stage bodies call the same
:func:`score_on_shard` with the same seeds — identical numbers, two
doors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.features import FeatureSpec, get_store
from repro.ml.metrics import mape
from repro.obs import span

__all__ = [
    "score_on_shard",
    "WindowDrift",
    "DriftReport",
    "drift_report",
    "rolling_drift",
]


def score_on_shard(model, ds, m: int, k: int, tier: "str | FeatureSpec") -> float:
    """MAPE of a trained forecaster on one shard's (m, k, tier) windows.

    The windows come from the shard dataset's own
    :class:`~repro.features.FeatureStore`, so every score on one shard
    in a process shares one in-memory window build.
    """
    spec = FeatureSpec.resolve(tier)
    x, y, _ = get_store(ds).windows(spec, m, k)
    return float(mape(y, model.predict(x)))


@dataclass
class WindowDrift:
    """Fresh-vs-stale forecast error on one evaluation window."""

    window: int
    runs: int
    #: Per-seed MAPEs of the model retrained on window ``window - 1``.
    fresh: list[float] = field(default_factory=list)
    #: Per-seed MAPEs of the model trained once on window 0.
    stale: list[float] = field(default_factory=list)

    @property
    def fresh_mean(self) -> float:
        return float(np.mean(self.fresh))

    @property
    def fresh_std(self) -> float:
        return float(np.std(self.fresh))

    @property
    def stale_mean(self) -> float:
        return float(np.mean(self.stale))

    @property
    def stale_std(self) -> float:
        return float(np.std(self.stale))

    @property
    def drift(self) -> float:
        """Stale-minus-fresh mean MAPE: positive = retraining helps."""
        return self.stale_mean - self.fresh_mean


@dataclass
class DriftReport:
    """The per-window MAPE trajectory of one dataset key's stream."""

    key: str
    m: int
    k: int
    tier: str
    seeds: tuple
    windows: list[WindowDrift] = field(default_factory=list)

    @property
    def mean_drift(self) -> float:
        """Mean stale-minus-fresh MAPE across evaluation windows."""
        if not self.windows:
            return 0.0
        return float(np.mean([w.drift for w in self.windows]))

    def rows(self) -> list[list[str]]:
        """Table rows: window | runs | fresh | stale | drift."""
        return [
            [
                f"w{w.window}",
                str(w.runs),
                f"{w.fresh_mean:.2f} ± {w.fresh_std:.2f}",
                f"{w.stale_mean:.2f} ± {w.stale_std:.2f}",
                f"{w.drift:+.2f}",
            ]
            for w in self.windows
        ]


def drift_report(
    key: str,
    m: int,
    k: int,
    tier: str,
    seeds: tuple,
    evals: "list[dict]",
) -> DriftReport:
    """Assemble a :class:`DriftReport` from per-window evaluation dicts.

    Each entry carries ``window``, ``runs``, and per-seed ``fresh`` /
    ``stale`` MAPE lists — the exact payload the
    ``sd-eval`` stages of :mod:`repro.experiments.stream_drift` emit.
    """
    return DriftReport(
        key=key,
        m=m,
        k=k,
        tier=tier,
        seeds=tuple(seeds),
        windows=[
            WindowDrift(
                window=int(e["window"]),
                runs=int(e["runs"]),
                fresh=[float(v) for v in e["fresh"]],
                stale=[float(v) for v in e["stale"]],
            )
            for e in sorted(evals, key=lambda e: e["window"])
        ],
    )


def rolling_drift(
    ds,
    m: int,
    k: int,
    tier: "str | FeatureSpec" = "app",
    seeds: tuple = (0, 1),
    model_factory=None,
) -> DriftReport:
    """Rolling-window retraining over a streamed dataset's shards.

    For every evaluation window ``w >= 1``: train per seed on shard
    ``w - 1`` (fresh) and on shard 0 (stale), score both on shard ``w``.
    Pure and in-process — the memoized experiment graph
    (:func:`repro.experiments.stream_drift.stream_drift`) computes the
    identical numbers stage by stage.
    """
    from repro.analysis.forecasting import default_forecaster, fit_forecaster
    from repro.campaign.streaming import shard_view

    factory = model_factory or default_forecaster
    spec = FeatureSpec.resolve(tier)
    views = getattr(ds, "shard_views", None) or [ds]
    report = DriftReport(
        key=ds.key, m=m, k=k, tier=spec.name, seeds=tuple(seeds)
    )
    with span(
        "ml.rolling_drift", dataset=ds.key, windows=len(views), m=m, k=k
    ):
        stale_models = {
            s: fit_forecaster(
                shard_view(ds, 0), m, k, spec, seed=s, model_factory=factory
            )
            for s in seeds
        }
        prev = dict(stale_models)
        for w in range(1, len(views)):
            shard = shard_view(ds, w)
            drift = WindowDrift(window=w, runs=len(shard))
            for s in seeds:
                drift.fresh.append(score_on_shard(prev[s], shard, m, k, spec))
                drift.stale.append(
                    score_on_shard(stale_models[s], shard, m, k, spec)
                )
            report.windows.append(drift)
            prev = {
                s: fit_forecaster(
                    shard, m, k, spec, seed=s, model_factory=factory
                )
                for s in seeds
            }
    return report
