"""Congestion engine: monotonicity, conservation, adaptivity, composition."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MAX_UTILISATION, TINY
from repro.network.engine import (
    SLOWDOWN_CAP,
    BaseLoad,
    CongestionEngine,
    slowdown_curve,
    stall_curve,
)
from repro.network.traffic import FlowSet, router_alltoall_flows, uniform_random_flows
from repro.topology.dragonfly import DragonflyTopology


def _job_flows(topo, n_nodes, volume, seed=0):
    rng = np.random.default_rng(seed)
    nodes = rng.choice(topo.compute_nodes, size=n_nodes, replace=False)
    return router_alltoall_flows(topo, nodes, volume), nodes


def test_stall_curve_shape():
    u = np.array([0.0, 0.2, 0.5, 0.9, 1.5])
    s = stall_curve(u)
    assert s[0] == 0.0
    assert (np.diff(s) >= 0).all()
    # Clamped above MAX_UTILISATION.
    assert s[-1] == stall_curve(np.array([MAX_UTILISATION]))[0]


def test_slowdown_curve_bounds():
    u = np.linspace(0, 2, 50)
    s = slowdown_curve(u)
    assert (s >= 1.0).all()
    assert (s <= SLOWDOWN_CAP).all()
    assert (np.diff(s) >= 0).all()


def test_empty_network_is_idle(tiny_topo, tiny_engine):
    state = tiny_engine.solve([])
    assert state.link_loads.sum() == 0.0
    assert state.link_stall_rate.sum() == 0.0
    assert state.nic_util.max() == 0.0
    assert state.rt_flit_rate.sum() == 0.0


def test_single_job_loads_positive(tiny_topo, tiny_engine):
    flows, _ = _job_flows(tiny_topo, 20, 5e9)
    routed = tiny_engine.route(flows)
    state = tiny_engine.solve([routed])
    assert state.link_loads.sum() > 0
    assert len(state.metrics) == 1
    m = state.metrics[0]
    assert (m.fabric_slowdown >= 1.0).all()
    assert (m.alpha >= 0.25).all() and (m.alpha <= 0.98).all()


def test_more_traffic_more_slowdown(tiny_topo, tiny_engine):
    flows, _ = _job_flows(tiny_topo, 24, 1e9)
    routed_lo = tiny_engine.route(flows)
    routed_hi = tiny_engine.route(
        FlowSet(flows.src, flows.dst, flows.volume * 40.0, flows.response_ratio)
    )
    lo = tiny_engine.solve([routed_lo]).metrics[0]
    hi = tiny_engine.solve([routed_hi]).metrics[0]
    w = flows.volume
    assert hi.volume_weighted(w)[0] > lo.volume_weighted(w)[0]


def test_background_interference_slows_job(tiny_topo, tiny_engine):
    """The paper's central mechanism: a neighbour's traffic slows our job."""
    ours, _ = _job_flows(tiny_topo, 16, 2e9, seed=1)
    theirs, _ = _job_flows(tiny_topo, 60, 3e10, seed=2)
    routed = tiny_engine.route(ours)
    alone = tiny_engine.solve([routed]).metrics[0]
    noisy_base = tiny_engine.solve([tiny_engine.route(theirs)]).as_base()
    shared = tiny_engine.solve([routed], base=noisy_base).metrics[0]
    w = ours.volume
    assert shared.volume_weighted(w)[0] > alone.volume_weighted(w)[0]


def test_adaptive_split_reacts_to_congestion(tiny_topo):
    """Congested minimal path => alpha drops below the initial bias."""
    engine = CongestionEngine(tiny_topo, iterations=3)
    t = tiny_topo
    src = np.array([int(t.router_id(0, 0, 0))])
    dst = np.array([int(t.router_id(3, 1, 1))])
    flows = FlowSet(src, dst, np.array([1e8]))
    routed = engine.route(flows)
    # Saturate every direct blue link 0 -> 3 (the minimal path's global
    # hop); Valiant routes go via other groups and stay clean.
    base = BaseLoad.zeros(t)
    for c in range(t.global_multiplicity):
        base.link_loads[int(t.blue_link(0, 3, c))] = 2e10
    state = engine.solve([routed], base=base)
    assert state.metrics[0].alpha[0] < engine.alpha0
    # Without the hot base load the split stays at (or above) the bias.
    clean = engine.solve([routed])
    assert clean.metrics[0].alpha[0] >= engine.alpha0 - 1e-9


def test_endpoint_accounting(tiny_topo, tiny_engine):
    flows = FlowSet(np.array([0, 0]), np.array([13, 25]), np.array([1e9, 2e9]))
    routed = tiny_engine.route(flows)
    state = tiny_engine.solve([routed])
    assert state.inj[0] == pytest.approx(3e9)
    assert state.ej[13] == pytest.approx(1e9)
    assert state.ej[25] == pytest.approx(2e9)
    assert state.vc4[0] == pytest.approx(3e9 * flows.response_ratio)
    assert state.inj.sum() == pytest.approx(flows.total_volume)
    assert state.ej.sum() == pytest.approx(flows.total_volume)


def test_base_load_composition(tiny_topo, tiny_engine):
    flows, _ = _job_flows(tiny_topo, 20, 1e9)
    routed = tiny_engine.route(flows)
    state = tiny_engine.solve([routed])
    base = state.as_base()
    doubled = tiny_engine.solve([routed], base=base)
    assert doubled.inj.sum() == pytest.approx(2 * flows.total_volume)


def test_rt_aggregation_conserves_flits(tiny_topo, tiny_engine):
    from repro.config import FLIT_BYTES

    flows, _ = _job_flows(tiny_topo, 20, 1e9)
    routed = tiny_engine.route(flows)
    state = tiny_engine.solve([routed])
    assert state.rt_flit_rate.sum() == pytest.approx(
        state.link_loads.sum() / FLIT_BYTES
    )


def test_per_flow_endpoint_slowdown_tracks_hot_nic(tiny_topo, tiny_engine):
    # Saturate router 5's NICs with incast.
    srcs = np.arange(20, 40)
    flows = FlowSet(srcs, np.full(20, 5), np.full(20, 3e9))
    routed = tiny_engine.route(flows)
    state = tiny_engine.solve([routed])
    assert state.nic_util[5] > state.nic_util[6]
    m = state.metrics[0]
    assert m.endpoint_slowdown.max() > 1.0


def test_volume_weighted_empty():
    from repro.network.engine import FlowMetrics

    m = FlowMetrics(
        path_util=np.empty(0),
        fabric_slowdown=np.empty(0),
        endpoint_slowdown=np.empty(0),
        alpha=np.empty(0),
    )
    assert m.volume_weighted(np.empty(0)) == (1.0, 1.0)


@given(seed=st.integers(0, 200), scale=st.floats(0.1, 50.0))
@settings(max_examples=15, deadline=None)
def test_property_loads_scale_linearly_at_fixed_alpha(seed, scale):
    topo = DragonflyTopology.from_preset(TINY)
    engine = CongestionEngine(topo, iterations=1)
    rng = np.random.default_rng(seed)
    nodes = rng.choice(topo.compute_nodes, size=16, replace=False)
    flows = uniform_random_flows(topo, nodes, 1e8, rng)
    if len(flows) == 0:
        return
    routed = engine.route(flows)
    l1 = routed.routing.link_loads(flows.volume, 0.8, topo.num_links)
    l2 = routed.routing.link_loads(flows.volume * scale, 0.8, topo.num_links)
    np.testing.assert_allclose(l2, l1 * scale, rtol=1e-9)
