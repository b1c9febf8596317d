"""The flattened split search and the path-reusing RFE fold against
their frozen predecessors (:mod:`tests.ml.legacy_split_search`,
:mod:`tests.ml.legacy_rfe`): byte-equal trees, identical fold results,
and the fit count the model reuse saves."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.gbr import GradientBoostedRegressor
from repro.ml.model_selection import KFold
from repro.ml.rfe import _fold_relevance, relevance_scores
from repro.ml.tree import DecisionTreeRegressor
from tests.ml.legacy_rfe import legacy_fold_relevance
from tests.ml.legacy_split_search import legacy_fit_binned
from tests.parallel.test_equivalence import _NoBinned, _fast_gbr

NODE_ARRAYS = ("_nf", "_nb_arr", "_nl", "_nr", "_nv", "feature_importances_")


@pytest.fixture(autouse=True)
def _no_env_workers(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


# --------------------------------------------------------------------- #
# Tree split search
# --------------------------------------------------------------------- #


def _codes(kind: str, n: int, h: int, n_bins: int, rng) -> np.ndarray:
    if kind == "spread":
        return rng.integers(0, n_bins, size=(n, h)).astype(np.uint8)
    # Few distinct codes per column (ties everywhere), a constant column,
    # and a duplicate column whose gains tie exactly with column 0.
    step = max(1, n_bins // 4)
    codes = (rng.integers(0, min(n_bins, 4), size=(n, h)) * step).astype(np.uint8)
    if h > 2:
        codes[:, 1] = n_bins - 1
        codes[:, 2] = codes[:, 0]
    return codes


def _assert_same_tree(new: DecisionTreeRegressor, ref: DecisionTreeRegressor):
    for name in NODE_ARRAYS:
        a, b = getattr(new, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("kind", ["spread", "tied"])
@pytest.mark.parametrize("n_bins", [2, 64, 256])
@pytest.mark.parametrize("h", [1, 13])
def test_split_search_matches_legacy(h, n_bins, kind):
    rng = np.random.default_rng(1000 * h + n_bins + (kind == "tied"))
    n = 150
    codes = _codes(kind, n, h, n_bins, rng)
    y = rng.normal(size=n)
    if kind == "tied":
        y = np.round(y, 1)
    # 1 = any split; 30 leaves 2*30 > some children; 75 admits only the
    # exact median split; 76 leaves the root a leaf.
    for min_leaf in (1, 30, n // 2, n // 2 + 1):
        for depth in range(1, 6):
            params = dict(max_depth=depth, min_samples_leaf=min_leaf, n_bins=n_bins)
            new = DecisionTreeRegressor(**params).fit_binned(codes, y)
            ref = legacy_fit_binned(DecisionTreeRegressor(**params), codes, y)
            _assert_same_tree(new, ref)


def test_gbr_matches_legacy_split_search(monkeypatch):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(400, 7))
    y = x[:, 0] - 2.0 * x[:, 4] + rng.normal(scale=0.1, size=400)
    new = GradientBoostedRegressor(n_estimators=20, random_state=3).fit(x, y)
    monkeypatch.setattr(DecisionTreeRegressor, "fit_binned", legacy_fit_binned)
    ref = GradientBoostedRegressor(n_estimators=20, random_state=3).fit(x, y)
    assert new.feature_importances_.tobytes() == ref.feature_importances_.tobytes()
    assert new.predict(x).tobytes() == ref.predict(x).tobytes()


# --------------------------------------------------------------------- #
# RFE fold
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def folds():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(180, 6))
    y = 2.0 * x[:, 0] - x[:, 3] + rng.normal(scale=0.1, size=180) + 15.0
    offset = np.linspace(50.0, 60.0, 180)
    out = []
    for fold, (tr, te) in enumerate(KFold(3, shuffle=True, seed=0).split(180)):
        off_te = offset[te] if fold % 2 else None
        out.append((x[tr], y[tr], x[te], y[te], off_te, fold))
    return out


@pytest.mark.parametrize("factory", [_fast_gbr, _NoBinned], ids=["binned", "plain"])
@pytest.mark.parametrize("step", [1, 3])
def test_fold_relevance_matches_legacy(folds, factory, step):
    for xtr, ytr, xte, yte, off_te, fold in folds:
        got = _fold_relevance(xtr, ytr, xte, yte, off_te, factory, fold, step)
        ref = legacy_fold_relevance(xtr, ytr, xte, yte, off_te, factory, fold, step)
        assert got == ref


def _counting(factory):
    """A factory wrapper plus the list its models append to per fit."""
    fits: list[int] = []

    def make():
        est = factory()
        name = "fit_binned" if hasattr(est, "fit_binned") else "fit"
        inner = getattr(est, name)

        def counted(*args, **kwargs):
            fits.append(1)
            return inner(*args, **kwargs)

        setattr(est, name, counted)
        return est

    return make, fits


@pytest.mark.parametrize("factory", [_fast_gbr, _NoBinned], ids=["binned", "plain"])
def test_relevance_fits_h_models_per_split(folds, factory):
    # The path fits H..2 and the scoring reuses them: S*H fits in all,
    # where refitting every nested subset made S*(2H - 1).
    xtr, ytr, _, _, _, _ = folds[0]
    make, fits = _counting(factory)
    relevance_scores(
        xtr, ytr, [f"f{i}" for i in range(6)], estimator_factory=make,
        n_splits=3, workers=1,
    )
    assert len(fits) == 3 * 6


@pytest.mark.parametrize("step", [1, 3])
def test_fold_fits_h_models_at_any_step(folds, step):
    # Path sizes plus the sizes it skipped cover 1..H exactly once.
    xtr, ytr, xte, yte, off_te, fold = folds[0]
    make, fits = _counting(_fast_gbr)
    _fold_relevance(xtr, ytr, xte, yte, off_te, make, fold, step)
    assert len(fits) == 6
