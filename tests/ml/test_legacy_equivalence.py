"""The flattened split search, the shared-key boosting loop, the
path-reusing RFE fold and the trimmed attention step against their
frozen predecessors (:mod:`tests.ml.legacy_split_search`,
:mod:`tests.ml.legacy_gbr`, :mod:`tests.ml.legacy_rfe`,
:mod:`tests.ml.legacy_attention`): byte-equal trees, ensembles and
forecasters, identical fold results, and the fit count the model reuse
saves."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.attention import AttentionForecaster
from repro.ml.gbr import GradientBoostedRegressor
from repro.ml.model_selection import KFold
from repro.ml.rfe import _fold_relevance, relevance_scores
from repro.ml.tree import Binner, DecisionTreeRegressor, histogram_keys
from tests.ml.legacy_attention import legacy_fit
from tests.ml.legacy_gbr import (
    legacy_gbr_fit_binned,
    legacy_gbr_predict_binned,
    legacy_tree_predict_binned,
)
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
    if kind == "constant":
        return np.full((n, h), n_bins // 2, dtype=np.uint8)
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


def test_gbr_matches_legacy_split_search():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(400, 7))
    y = x[:, 0] - 2.0 * x[:, 4] + rng.normal(scale=0.1, size=400)
    new = GradientBoostedRegressor(n_estimators=20, random_state=3).fit(x, y)
    # The frozen boosting loop, growing every tree with the per-feature
    # split search.
    ref = GradientBoostedRegressor(n_estimators=20, random_state=3)
    binner = Binner(ref.n_bins).fit(x)
    codes = binner.transform(x)
    legacy_gbr_fit_binned(ref, codes, y, binner)
    assert new.feature_importances_.tobytes() == ref.feature_importances_.tobytes()
    assert new.predict(x).tobytes() == ref.predict(x).tobytes()
    for a, b in zip(new.trees_, ref.trees_, strict=True):
        _assert_same_tree(a, b)
    assert new.predict(x).tobytes() == legacy_gbr_predict_binned(ref, codes).tobytes()


# --------------------------------------------------------------------- #
# Boosting loop: shared keys, row ids, fitted values out of the fit
# --------------------------------------------------------------------- #


def _assert_same_ensemble(new, ref, codes):
    assert new.init_ == ref.init_
    assert np.asarray(new.train_score_).tobytes() == np.asarray(ref.train_score_).tobytes()
    assert new.feature_importances_.tobytes() == ref.feature_importances_.tobytes()
    for a, b in zip(new.trees_, ref.trees_, strict=True):
        _assert_same_tree(a, b)
    for rows in (codes, codes[:1], codes[-1:]):
        got = new.predict_binned(rows)
        assert got.tobytes() == legacy_gbr_predict_binned(ref, rows).tobytes()


@pytest.mark.parametrize("kind", ["spread", "tied", "constant"])
@pytest.mark.parametrize("h", [1, 13])
@pytest.mark.parametrize("subsample", [0.8, 1.0])
def test_gbr_matches_legacy_loop(kind, h, subsample):
    rng = np.random.default_rng(100 * h + int(10 * subsample) + len(kind))
    n = 90
    codes = _codes(kind, n, h, 64, rng)
    y = rng.normal(size=n)
    if kind == "tied":
        y = np.round(y, 1)
    binner = Binner(64)  # stored only; nothing here predicts from floats
    # min_samples_leaf 20: nodes of the 72-row subsample fall below 2 * 20
    # one level down and stop as leaves.
    for min_leaf in (1, 5, 20):
        params = dict(
            n_estimators=8, max_depth=3, min_samples_leaf=min_leaf,
            subsample=subsample, random_state=h,
        )
        new = GradientBoostedRegressor(**params).fit_binned(codes, y, binner)
        ref = legacy_gbr_fit_binned(GradientBoostedRegressor(**params), codes, y, binner)
        _assert_same_ensemble(new, ref, codes)


@pytest.mark.parametrize("kind", ["spread", "tied"])
@pytest.mark.parametrize("n_rows", [6, 51, 90])
def test_tree_rows_and_fitted_match_copy_and_predict(kind, n_rows):
    # Growing on row ids into shared codes is growing on the copied rows;
    # the fitted buffer holds what routing every row would give.
    rng = np.random.default_rng(n_rows)
    codes = _codes(kind, 90, 13, 64, rng)
    y = rng.normal(size=90)
    rows = rng.permutation(90)[:n_rows]
    fitted = np.full(90, np.nan)
    params = dict(max_depth=3, min_samples_leaf=3)
    new = DecisionTreeRegressor(**params).fit_binned(
        codes, y, rows=rows, fitted=fitted, keys=histogram_keys(codes, 64)
    )
    ref = legacy_fit_binned(DecisionTreeRegressor(**params), codes[rows], y[rows])
    _assert_same_tree(new, ref)
    assert fitted.tobytes() == legacy_tree_predict_binned(ref, codes).tobytes()
    assert new.predict_binned(codes).tobytes() == fitted.tobytes()


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
def test_relevance_fits_h_models_per_split(folds, factory, monkeypatch):
    # The path fits H..2 and the scoring reuses them: S*H fits in all,
    # where refitting every nested subset made S*(2H - 1).
    xtr, ytr, _, _, _, _ = folds[0]
    make, fits = _counting(factory)
    monkeypatch.setenv("REPRO_WORKERS", "1")  # fits counted in-process
    relevance_scores(
        xtr, ytr, [f"f{i}" for i in range(6)], estimator_factory=make,
        n_splits=3,
    )
    assert len(fits) == 3 * 6


@pytest.mark.parametrize("step", [1, 3])
def test_fold_fits_h_models_at_any_step(folds, step):
    # Path sizes plus the sizes it skipped cover 1..H exactly once.
    xtr, ytr, xte, yte, off_te, fold = folds[0]
    make, fits = _counting(_fast_gbr)
    _fold_relevance(xtr, ytr, xte, yte, off_te, make, fold, step)
    assert len(fits) == 6


# --------------------------------------------------------------------- #
# Attention training step
# --------------------------------------------------------------------- #


def _windows(n: int, m: int, h: int, seed: int):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m, h))
    y = x[:, -1, 0] - 0.5 * x[:, 0, -1] + 0.1 * rng.normal(size=n)
    return x, y


# n=8: no validation split; patience=2: stops early; n=40 with
# batch_size=20: two batches (20 + 14) per epoch.
FIT_CASES = {
    "no_validation": (8, dict(epochs=6)),
    "early_stop": (60, dict(epochs=200, patience=2, lr=3e-2)),
    "two_batches": (40, dict(epochs=8, batch_size=20)),
}


@pytest.mark.parametrize("case", sorted(FIT_CASES))
@pytest.mark.parametrize("m", [1, 3, 30])
def test_attention_fit_matches_legacy(case, m):
    n, kwargs = FIT_CASES[case]
    x, y = _windows(n, m, 5, seed=m)
    params = dict(d_model=6, hidden=10, seed=m, **kwargs)
    new = AttentionForecaster(**params).fit(x, y)
    ref = legacy_fit(AttentionForecaster(**params), x, y)
    if case == "early_stop":
        assert len(ref.history_) < kwargs["epochs"]
    assert np.asarray(new.history_).tobytes() == np.asarray(ref.history_).tobytes()
    assert list(new.params) == list(ref.params)
    for name, arr in ref.params.items():
        assert new.params[name].dtype == arr.dtype, name
        assert new.params[name].shape == arr.shape, name
        assert new.params[name].tobytes() == arr.tobytes(), name
        # Standalone arrays, as before: nothing aliases a training buffer.
        assert new.params[name].base is None, name
    assert new.predict(x).tobytes() == ref.predict(x).tobytes()
