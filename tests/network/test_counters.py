"""Counter synthesis: Table II fidelity and accounting identities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import FLIT_BYTES, MEAN_PACKET_FLITS, rng_for
from repro.network.counters import (
    APP_COUNTERS,
    COUNTER_SPECS,
    counters_to_matrix,
    synthesize_router_counters,
)
from repro.network.traffic import router_alltoall_flows
from repro.telemetry.ariesncl import AriesNCL


@pytest.fixture(scope="module")
def busy_state(tiny_topo):
    from repro.network.engine import CongestionEngine

    engine = CongestionEngine(tiny_topo)
    rng = np.random.default_rng(11)
    nodes = rng.choice(tiny_topo.compute_nodes, size=40, replace=False)
    flows = router_alltoall_flows(tiny_topo, nodes, 4e10)
    return engine.solve([engine.route(flows)])


def test_table2_has_thirteen_rows():
    assert len(COUNTER_SPECS) == 13
    assert [s.abbreviation for s in COUNTER_SPECS] == APP_COUNTERS
    # Exactly the paper's derived rows.
    derived = {s.abbreviation for s in COUNTER_SPECS if s.derived}
    assert derived == {"RT_FLIT_TOT", "RT_PKT_TOT", "PT_FLIT_TOT", "PT_PKT_TOT"}


def test_table2_cray_names_follow_aries_convention():
    for spec in COUNTER_SPECS:
        assert spec.name.startswith("AR_RTR_")
        if spec.tile == "PT":
            assert spec.name.startswith("AR_RTR_PT_")
            assert spec.abbreviation.startswith("PT_")
        else:
            assert spec.abbreviation.startswith("RT_")


def test_synthesis_covers_all_app_counters(busy_state, tiny_topo):
    rates = synthesize_router_counters(busy_state)
    assert set(rates) == set(APP_COUNTERS)
    for name, vec in rates.items():
        assert vec.shape == (tiny_topo.num_routers,)
        assert (vec >= 0).all(), name


def test_derived_counter_identities(busy_state):
    rates = synthesize_router_counters(busy_state)
    np.testing.assert_allclose(
        rates["PT_FLIT_TOT"], rates["PT_FLIT_VC0"] + rates["PT_FLIT_VC4"]
    )
    np.testing.assert_allclose(
        rates["PT_PKT_TOT"], rates["PT_FLIT_TOT"] / MEAN_PACKET_FLITS
    )
    np.testing.assert_allclose(
        rates["RT_PKT_TOT"], rates["RT_FLIT_TOT"] / MEAN_PACKET_FLITS
    )


def test_pt_flits_match_endpoint_bytes(busy_state):
    rates = synthesize_router_counters(busy_state)
    np.testing.assert_allclose(
        rates["PT_FLIT_VC0"].sum(), busy_state.ej.sum() / FLIT_BYTES
    )
    np.testing.assert_allclose(
        rates["PT_FLIT_VC4"].sum(), busy_state.vc4.sum() / FLIT_BYTES
    )


def test_stall_counters_rise_with_load(tiny_topo):
    from repro.network.engine import CongestionEngine

    engine = CongestionEngine(tiny_topo)
    rng = np.random.default_rng(5)
    nodes = rng.choice(tiny_topo.compute_nodes, size=40, replace=False)
    lo = engine.solve([engine.route(router_alltoall_flows(tiny_topo, nodes, 1e9))])
    hi = engine.solve([engine.route(router_alltoall_flows(tiny_topo, nodes, 6e10))])
    r_lo = synthesize_router_counters(lo)
    r_hi = synthesize_router_counters(hi)
    for stall in ("RT_RB_STL", "PT_RB_STL_RQ", "PT_RB_STL_RS", "PT_CB_STL_RQ"):
        assert r_hi[stall].sum() > r_lo[stall].sum()
    # Stalls grow superlinearly while flits grow linearly.
    flit_ratio = r_hi["RT_FLIT_TOT"].sum() / max(r_lo["RT_FLIT_TOT"].sum(), 1e-9)
    stall_ratio = r_hi["RT_RB_STL"].sum() / max(r_lo["RT_RB_STL"].sum(), 1e-9)
    assert stall_ratio > flit_ratio


def _aggregate(tiny_topo, state, duration, rng=None, noise=0.0):
    """Job-router counter deltas for one step, via a one-row
    ``AriesNCL.record_steps`` block over routers 0-4 (their columns)."""
    ncl = AriesNCL(tiny_topo, np.arange(5), rng=rng, noise=noise)
    rates = {
        k: v[None, ncl.job_routers]
        for k, v in synthesize_router_counters(state).items()
    }
    [sc] = ncl.record_steps([0], [duration], rates)
    return sc.values


def test_aggregate_counters_integrates_duration(busy_state, tiny_topo):
    one = _aggregate(tiny_topo, busy_state, duration=1.0)
    ten = _aggregate(tiny_topo, busy_state, duration=10.0)
    for name in APP_COUNTERS:
        assert ten[name] == pytest.approx(10 * one[name])


def test_aggregate_counters_noise_reproducible(busy_state, tiny_topo):
    a = _aggregate(tiny_topo, busy_state, 1.0, rng=rng_for("agg"), noise=0.05)
    b = _aggregate(tiny_topo, busy_state, 1.0, rng=rng_for("agg"), noise=0.05)
    assert a == b
    c = _aggregate(tiny_topo, busy_state, 1.0, rng=rng_for("other"), noise=0.05)
    assert any(a[k] != c[k] for k in a)


def test_counters_to_vector_order():
    # Scalar counters -> a feature vector laid out in ``names`` order.
    d = {n: float(i) for i, n in enumerate(APP_COUNTERS)}
    v = counters_to_matrix(d, APP_COUNTERS)
    np.testing.assert_array_equal(v, np.arange(13.0))
    rev = counters_to_matrix(d, APP_COUNTERS[::-1])
    np.testing.assert_array_equal(rev, np.arange(13.0)[::-1])


def test_counters_to_matrix_orders_and_shapes():
    # Per-router rate vectors -> (names, routers).
    rates = {"a": np.arange(4.0), "b": np.arange(4.0) * 2}
    m = counters_to_matrix(rates, ["b", "a"])
    assert m.shape == (2, 4)
    np.testing.assert_array_equal(m[0], rates["b"])
    np.testing.assert_array_equal(m[1], rates["a"])
    # Default name order is dict insertion order.
    np.testing.assert_array_equal(counters_to_matrix(rates)[0], rates["a"])
    # Per-step (steps, routers) matrices -> (names, steps, routers).
    block = {"a": np.arange(12.0).reshape(3, 4), "b": np.ones((3, 4))}
    cube = counters_to_matrix(block, ["a", "b"])
    assert cube.shape == (2, 3, 4)
    np.testing.assert_array_equal(cube[0], block["a"])
    # Scalars -> a plain feature vector in ``names`` order.
    d = {n: float(i) for i, n in enumerate(APP_COUNTERS)}
    np.testing.assert_array_equal(
        counters_to_matrix(d, APP_COUNTERS), np.arange(13.0)
    )
