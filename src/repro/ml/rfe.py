"""Recursive feature elimination with cross-validated relevance scores.

Paper §IV-B: *"RFE is built upon the idea of repeatedly constructing a
predictive model, identifying the worst performing feature (based on
feature importance), setting that feature aside, and then repeating the
process with the rest of the features.  ...  Finally, we compute the
relevance score of each feature as the likelihood of being chosen as a
well-performing feature across all the cross-validation splits."*

Implementation: on each CV split, run the elimination path on the train
fold, score every intermediate subset on the held-out fold, keep the
best-scoring subset, and count feature membership across splits.

Performance: with ``step=1`` each fold fits H boosted ensembles — the
elimination path fits subsets H..2, and the nested-subset scoring reuses
those models and fits only k=1 — so the sweep fits H · n_splits
ensembles in all.  The folds are embarrassingly parallel —
:func:`relevance_scores` fans them out over :mod:`repro.parallel`
(``REPRO_WORKERS`` sets the count), with results reduced in fold order
so any worker count yields bit-identical
``scores``/``mapes``/``chosen_subsets``.  Inside each fold, the quantile
:class:`~repro.ml.tree.Binner` is fitted once on the train fold and
every subset fit reuses its codes by column slicing (quantile edges are
per-feature, so sliced codes are exactly what a per-subset refit would
bin); the k=H model doubles as the full-feature MAPE model.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.ml.gbr import GradientBoostedRegressor
from repro.ml.metrics import mape, rmse
from repro.ml.model_selection import KFold
from repro.ml.pipeline import Estimator
from repro.ml.tree import Binner
from repro.obs import span
from repro.parallel import effective_workers, parallel_map


def default_estimator() -> GradientBoostedRegressor:
    """The paper's model: gradient boosted regression trees."""
    return GradientBoostedRegressor(n_estimators=60, max_depth=3)


def _binned_n_bins(est) -> "int | None":
    """``n_bins`` when ``est`` supports the pre-binned fast path, else
    None.

    A :class:`~repro.ml.pipeline.Pipeline` around a binned estimator
    qualifies through its passthrough (spans/counters preserved); a bare
    estimator qualifies when it exposes the binned surface and its bin
    count.
    """
    if getattr(est, "supports_binned", False):
        return est.estimator.n_bins
    if (
        hasattr(est, "fit_binned")
        and hasattr(est, "predict_binned")
        and hasattr(est, "n_bins")
    ):
        return est.n_bins
    return None


def _fit_subset(
    est: Estimator,
    x: np.ndarray,
    y: np.ndarray,
    cols: list[int],
    prebinned: "tuple[np.ndarray, Binner] | None",
) -> Estimator:
    """Fit ``est`` on columns ``cols``: from sliced codes when
    ``prebinned`` is given and ``est`` has the binned surface, else on
    ``x[:, cols]``."""
    if prebinned is not None and _binned_n_bins(est) is not None:
        codes, binner = prebinned
        est.fit_binned(codes[:, cols], y, binner.subset(cols))
    else:
        est.fit(x[:, cols], y)
    return est


class RFE:
    """Single-pass recursive feature elimination.

    Works with any :class:`~repro.ml.pipeline.Estimator` that exposes
    ``feature_importances_`` (GBR, a tree, or a
    :class:`~repro.ml.pipeline.Pipeline` around one) — the paper uses GBR.
    """

    def __init__(
        self,
        estimator_factory: Callable[[], Estimator] = default_estimator,
        step: int = 1,
    ) -> None:
        if step < 1:
            raise ValueError("step must be >= 1")
        self.estimator_factory = estimator_factory
        self.step = step
        #: ranking_[f] = elimination rank of feature f; 1 = kept longest.
        self.ranking_: np.ndarray | None = None
        #: Elimination order, worst first.
        self.elimination_order_: list[int] = []
        #: The model fitted at each path step, keyed by its (ascending)
        #: feature subset.
        self.subset_models_: dict[tuple[int, ...], Estimator] = {}

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        prebinned: "tuple[np.ndarray, Binner] | None" = None,
    ) -> "RFE":
        """Run the elimination path.

        ``prebinned`` optionally carries ``(codes, binner)`` for ``x``;
        when the factory's estimators support binned fits, each
        iteration then refits from column-sliced codes instead of
        re-binning the shrinking matrix (bit-identical models, since
        quantile edges are per-feature).
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        h = x.shape[1]
        with span("ml.rfe.fit", features=h, n=len(x)):
            return self._fit(x, y, h, prebinned)

    def _fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        h: int,
        prebinned: "tuple[np.ndarray, Binner] | None" = None,
    ) -> "RFE":
        remaining = list(range(h))
        ranking = np.empty(h, dtype=np.int64)
        order: list[int] = []
        models: dict[tuple[int, ...], Estimator] = {}
        rank = h
        while len(remaining) > 1:
            est = _fit_subset(self.estimator_factory(), x, y, remaining, prebinned)
            models[tuple(remaining)] = est
            imp = est.feature_importances_
            k = min(self.step, len(remaining) - 1)
            worst_local = np.argsort(imp)[:k]
            # Eliminate worst-first so ranks are deterministic.
            for wl in sorted(worst_local, key=lambda i: imp[i]):
                f = remaining[wl]
                ranking[f] = rank
                rank -= 1
                order.append(f)
            remaining = [f for i, f in enumerate(remaining) if i not in set(worst_local)]
        ranking[remaining[0]] = 1
        self.ranking_ = ranking
        self.elimination_order_ = order
        self.subset_models_ = models
        return self


@dataclass
class RelevanceResult:
    """Cross-validated RFE relevance (one dataset's Fig. 9 column set)."""

    feature_names: list[str]
    #: Likelihood of each feature being in the best subset across splits.
    scores: np.ndarray
    #: Cross-validated prediction MAPE of the full-feature model (the
    #: paper reports < 5% for all datasets, §V-B).
    prediction_mape: float
    #: Per-split chosen subsets (feature indices), for inspection.
    chosen_subsets: list[list[int]] = field(default_factory=list)

    def top_features(self, k: int = 3) -> list[str]:
        order = np.argsort(-self.scores, kind="stable")
        return [self.feature_names[i] for i in order[:k]]


def _fold_relevance(
    xtr: np.ndarray,
    ytr: np.ndarray,
    xte: np.ndarray,
    yte: np.ndarray,
    off_te: "np.ndarray | None",
    estimator_factory: Callable[[], Estimator],
    fold: int,
    step: int = 1,
) -> tuple[list[int], float]:
    """One CV fold: elimination path, nested-subset scoring, fold MAPE.

    The nested subset of size k is the path's subset of size k: same
    codes, binner subset, column order and fresh factory model.  So the
    path's models are scored as they are, and only the sizes the path
    skipped are fitted here — k=1 at ``step=1``, more when ``step > 1``.
    This relies on ``estimator_factory()`` being deterministic (every
    call yields an identically configured and seeded model), which
    worker-count bit-identity already requires.

    Top-level so it pickles into pool workers; deterministic in its
    arguments, so the result is independent of which worker runs it.
    """
    with span("ml.rfe.fold", fold=fold):
        h = xtr.shape[1]
        # Bin the fold once; every subset fit column-slices these codes
        # (per-feature quantile edges make that bit-identical to
        # re-binning the subset).  Falls back to plain fits when the
        # factory's estimators lack the binned surface.
        prebinned = None
        n_bins = _binned_n_bins(estimator_factory())
        if n_bins is not None:
            binner = Binner(n_bins).fit(xtr)
            codes_te = binner.transform(xte)
            prebinned = (binner.transform(xtr), binner)
        # Elimination path on the train fold.
        rfe = RFE(estimator_factory, step=step)
        rfe.fit(xtr, ytr, prebinned=prebinned)
        ranking = rfe.ranking_
        # Score nested subsets on the held-out fold; keep the best.
        best_err = np.inf
        best_subset: list[int] = list(range(h))
        full_pred: np.ndarray | None = None
        for k in range(1, h + 1):
            subset = [f for f in range(h) if ranking[f] <= k]
            est = rfe.subset_models_.get(tuple(subset))
            if est is None:
                est = _fit_subset(estimator_factory(), xtr, ytr, subset, prebinned)
            if prebinned is not None:
                pred = est.predict_binned(codes_te[:, subset])
            else:
                pred = est.predict(xte[:, subset])
            err = rmse(yte, pred)
            if err < best_err - 1e-12:
                best_err = err
                best_subset = subset
            if k == h:
                # The k=H subset is every feature in order: this model
                # *is* the full-feature model — its predictions give the
                # reported MAPE.
                full_pred = pred
        if off_te is not None:
            truth = yte + off_te
            full_pred = full_pred + off_te
        else:
            truth = yte
        return best_subset, float(mape(truth, full_pred))


def relevance_scores(
    x: np.ndarray,
    y: np.ndarray,
    feature_names: list[str],
    estimator_factory: Callable[[], Estimator] = default_estimator,
    n_splits: int = 10,
    seed: int = 0,
    mape_offset: np.ndarray | None = None,
    max_samples: int | None = 4000,
) -> RelevanceResult:
    """Cross-validated RFE relevance scores (paper §IV-B / Fig. 9).

    Parameters
    ----------
    x, y:
        Mean-centered per-step samples: (NT, H) and (NT,).
    feature_names:
        Column labels (Table II abbreviations).
    n_splits:
        Folds (paper: 10).
    mape_offset:
        When ``y`` is a mean-centered deviation, the MAPE of the *time*
        prediction needs the mean trend back; pass the per-sample mean so
        the reported MAPE is on reconstructed absolute times.
    max_samples:
        Random subsample cap on the (NT) rows — the RFE sweep fits
        H * n_splits boosted ensembles, and a few thousand samples
        already pin the relevance ordering.  ``None`` disables.

    CV folds are independent tasks fanned out over :mod:`repro.parallel`
    (``REPRO_WORKERS`` workers; ``0`` = all cores; default serial).
    Results reduce in fold order, so every worker count yields
    bit-identical output.  ``estimator_factory`` must be picklable (a
    module-level function) on more than one worker.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape[1] != len(feature_names):
        raise ValueError("feature_names must match x columns")
    if max_samples is not None and len(x) > max_samples:
        pick = np.random.default_rng(seed).choice(
            len(x), size=max_samples, replace=False
        )
        x = x[pick]
        y = y[pick]
        if mape_offset is not None:
            mape_offset = np.asarray(mape_offset)[pick]
    h = x.shape[1]
    kf = KFold(n_splits=n_splits, shuffle=True, seed=seed)
    tasks = []
    for fold, (train, test) in enumerate(kf.split(len(x))):
        off_te = mape_offset[test] if mape_offset is not None else None
        tasks.append(
            (x[train], y[train], x[test], y[test], off_te, estimator_factory, fold)
        )
    with span(
        "ml.rfe.relevance",
        features=h,
        n=len(x),
        splits=n_splits,
        workers=effective_workers(),
    ):
        fold_results = parallel_map(_fold_relevance, tasks)
    counts = np.zeros(h)
    chosen_all: list[list[int]] = []
    mapes: list[float] = []
    for best_subset, fold_mape in fold_results:
        counts[best_subset] += 1.0
        chosen_all.append(best_subset)
        mapes.append(fold_mape)
    return RelevanceResult(
        feature_names=list(feature_names),
        scores=counts / n_splits,
        prediction_mape=float(np.mean(mapes)),
        chosen_subsets=chosen_all,
    )
