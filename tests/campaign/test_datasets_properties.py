"""Property tests for dataset assembly and transforms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.datasets import LDMS_FEATURES, RunDataset, RunRecord
from repro.features import TIERS
from repro.network.counters import APP_COUNTERS


def _dataset(n, t, seed):
    rng = np.random.default_rng(seed)
    runs = []
    for i in range(n):
        y = rng.uniform(1, 10, size=t)
        runs.append(
            RunRecord(
                run_index=i,
                start_time=float(i * 1000),
                step_times=y,
                compute_times=y * 0.3,
                mpi_times=y * 0.7,
                counters=rng.uniform(0, 1e9, size=(t, 13)),
                ldms=rng.uniform(0, 1e10, size=(t, 8)),
                num_routers=int(rng.integers(4, 64)),
                num_groups=int(rng.integers(1, 8)),
                neighborhood=[],
                routine_times={"Wait": float(y.sum())},
            )
        )
    return RunDataset(key="P-128", runs=runs)


@given(n=st.integers(2, 10), t=st.integers(2, 12), seed=st.integers(0, 50))
@settings(max_examples=30, deadline=None)
def test_property_mean_centering_reconstructs(n, t, seed):
    ds = _dataset(n, t, seed)
    xh, yh = ds.mean_centered()
    xm, ym = ds.mean_trends()
    # (x - m) + m loses ~eps * m absolutely, so scale the tolerance to the
    # mean's magnitude, not each element's.
    np.testing.assert_allclose(
        xh + xm[None], ds.X, rtol=1e-9, atol=1e-12 * float(np.abs(ds.X).max())
    )
    np.testing.assert_allclose(
        yh + ym[None], ds.Y, rtol=1e-9, atol=1e-12 * float(np.abs(ds.Y).max())
    )


@given(n=st.integers(2, 10), seed=st.integers(0, 50))
@settings(max_examples=30, deadline=None)
def test_property_relative_performance_min_one(n, seed):
    ds = _dataset(n, 4, seed)
    rel = ds.relative_performance()
    assert rel.min() == pytest.approx(1.0)
    assert (rel >= 1.0 - 1e-12).all()


@given(
    n=st.integers(3, 12),
    tau=st.floats(0.8, 1.2),
    seed=st.integers(0, 50),
)
@settings(max_examples=30, deadline=None)
def test_property_optimality_monotone_in_tau(n, tau, seed):
    ds = _dataset(n, 4, seed)
    p_low = ds.optimality(tau=tau)
    p_high = ds.optimality(tau=tau + 0.1)
    # Raising tau can only mark more runs optimal.
    assert (p_high >= p_low).all()


@given(n=st.integers(2, 6), t=st.integers(2, 8), seed=st.integers(0, 20))
@settings(max_examples=20, deadline=None)
def test_property_feature_tensor_consistent(n, t, seed):
    ds = _dataset(n, t, seed)
    full = ds.features(placement=True, io=True, sys=True)
    names = TIERS["app+placement+io+sys"].feature_names()
    assert full.shape == (n, t, len(names))
    # The app block is exactly X; the io/sys block exactly ldms.
    np.testing.assert_array_equal(full[:, :, : len(APP_COUNTERS)], ds.X)
    np.testing.assert_array_equal(
        full[:, :, len(APP_COUNTERS) + 2 :], ds.ldms
    )
    assert names[len(APP_COUNTERS)] == "NUM_ROUTERS"
    assert names[len(APP_COUNTERS) + 2 :] == LDMS_FEATURES


def test_dataset_save_load_roundtrip(tmp_path):
    ds = _dataset(4, 6, 7)
    ds.save(tmp_path / "P-128")
    back = RunDataset.load(tmp_path / "P-128")
    np.testing.assert_allclose(back.Y, ds.Y)
    np.testing.assert_allclose(back.X, ds.X)
    np.testing.assert_allclose(back.ldms, ds.ldms)
    assert back.key == ds.key
    assert [r.num_routers for r in back.runs] == [r.num_routers for r in ds.runs]
