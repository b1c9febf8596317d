"""Frozen nested-refit RFE fold, used as the sweep's golden reference.

Verbatim copies of ``RFE._fit`` (the elimination path) and
``_fold_relevance`` as they were before the fold started reusing the
path's models: the path fits subsets H..2, then every nested subset
k = 1..H is refitted from scratch.  The only edit is the ``step``
argument threaded into the path, so the reference covers ``step > 1``
too.  ``tests/ml/test_legacy_equivalence.py`` asserts the production
fold returns the same ``(best_subset, fold_mape)``.  Do not "modernise"
this module — its value is that it does not change.
"""

from __future__ import annotations

import numpy as np

from repro.ml.metrics import mape, rmse
from repro.ml.tree import Binner


def _binned_surface(est):
    if getattr(est, "supports_binned", False):
        return est, est.estimator.n_bins
    if (
        hasattr(est, "fit_binned")
        and hasattr(est, "predict_binned")
        and hasattr(est, "n_bins")
    ):
        return est, est.n_bins
    return None


def legacy_ranking(x, y, estimator_factory, step, prebinned=None) -> np.ndarray:
    """The elimination path's ranking (1 = kept longest)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    h = x.shape[1]
    codes, binner = prebinned if prebinned is not None else (None, None)
    remaining = list(range(h))
    ranking = np.empty(h, dtype=np.int64)
    rank = h
    while len(remaining) > 1:
        est = estimator_factory()
        surface = _binned_surface(est) if codes is not None else None
        if surface is not None:
            target, _ = surface
            target.fit_binned(codes[:, remaining], y, binner.subset(remaining))
        else:
            est.fit(x[:, remaining], y)
        imp = est.feature_importances_
        k = min(step, len(remaining) - 1)
        worst_local = np.argsort(imp)[:k]
        # Eliminate worst-first so ranks are deterministic.
        for wl in sorted(worst_local, key=lambda i: imp[i]):
            f = remaining[wl]
            ranking[f] = rank
            rank -= 1
        remaining = [f for i, f in enumerate(remaining) if i not in set(worst_local)]
    ranking[remaining[0]] = 1
    return ranking


def legacy_fold_relevance(
    xtr, ytr, xte, yte, off_te, estimator_factory, fold, step=1
) -> tuple[list[int], float]:
    """One CV fold with every nested subset refitted."""
    h = xtr.shape[1]
    prebinned = None
    codes_tr = codes_te = binner = None
    surface = _binned_surface(estimator_factory())
    if surface is not None:
        _, n_bins = surface
        binner = Binner(n_bins).fit(xtr)
        codes_tr = binner.transform(xtr)
        codes_te = binner.transform(xte)
        prebinned = (codes_tr, binner)
    ranking = legacy_ranking(xtr, ytr, estimator_factory, step, prebinned)
    best_err = np.inf
    best_subset: list[int] = list(range(h))
    full_pred = None
    for k in range(1, h + 1):
        subset = [f for f in range(h) if ranking[f] <= k]
        est = estimator_factory()
        surface = _binned_surface(est) if prebinned is not None else None
        if surface is not None:
            target, _ = surface
            target.fit_binned(codes_tr[:, subset], ytr, binner.subset(subset))
            pred = target.predict_binned(codes_te[:, subset])
        else:
            est.fit(xtr[:, subset], ytr)
            pred = est.predict(xte[:, subset])
        err = rmse(yte, pred)
        if err < best_err - 1e-12:
            best_err = err
            best_subset = subset
        if k == h:
            full_pred = pred
    if off_te is not None:
        truth = yte + off_te
        full_pred = full_pred + off_te
    else:
        truth = yte
    return best_subset, float(mape(truth, full_pred))
