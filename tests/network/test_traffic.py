"""Traffic pattern builders: volume conservation and shape checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TINY, rng_for
from repro.network.traffic import (
    FlowSet,
    allreduce_flows,
    halo_flows,
    io_flows,
    node_flows_to_router_flows,
    router_alltoall_flows,
    uniform_random_flows,
)
from repro.topology.dragonfly import DragonflyTopology


def test_flowset_validation():
    with pytest.raises(ValueError):
        FlowSet(np.array([0]), np.array([1, 2]), np.array([1.0]))
    with pytest.raises(ValueError):
        FlowSet(np.array([0]), np.array([1]), np.array([-1.0]))


def test_flowset_aggregation_merges_duplicates():
    fs = FlowSet(
        np.array([0, 0, 1]), np.array([1, 1, 0]), np.array([2.0, 3.0, 1.0])
    )
    agg = fs.aggregated(num_routers=4)
    assert len(agg) == 2
    assert agg.total_volume == pytest.approx(6.0)
    i = np.flatnonzero((agg.src == 0) & (agg.dst == 1))[0]
    assert agg.volume[i] == pytest.approx(5.0)


def test_flowset_concat():
    a = FlowSet(np.array([0]), np.array([1]), np.array([4.0]), response_ratio=0.1)
    b = FlowSet(np.array([2]), np.array([3]), np.array([12.0]), response_ratio=0.3)
    c = FlowSet.concat([a, b])
    assert len(c) == 2
    assert c.total_volume == pytest.approx(16.0)
    # Volume-weighted response ratio.
    assert c.response_ratio == pytest.approx((0.1 * 4 + 0.3 * 12) / 16)
    assert FlowSet.concat([]).total_volume == 0.0


def test_node_flows_drop_local(tiny_topo):
    # Nodes 0 and 1 share router 0 at 2 nodes/router.
    fs = node_flows_to_router_flows(
        tiny_topo, np.array([0, 0]), np.array([1, 2]), np.array([5.0, 7.0])
    )
    assert len(fs) == 1
    assert fs.total_volume == pytest.approx(7.0)


def test_halo_flows_volume_conservation(tiny_topo):
    nodes = tiny_topo.compute_nodes[:16]
    grid = (4, 4, 2)  # 32 ranks over 16 nodes at 2 ranks/node
    fs = halo_flows(tiny_topo, nodes, grid, bytes_per_neighbor=1000.0, ranks_per_node=2)
    nranks = 32
    # Total volume <= 6 neighbours * nranks * 1000 (some neighbours land on
    # the same node/router and are dropped as local).
    assert fs.total_volume <= 6 * nranks * 1000.0 + 1e-9
    assert fs.total_volume > 0
    # All flows live on the job's routers.
    routers = np.unique(tiny_topo.node_router(nodes))
    assert np.isin(fs.src, routers).all()
    assert np.isin(fs.dst, routers).all()


def test_halo_flows_grid_mismatch_raises(tiny_topo):
    with pytest.raises(ValueError):
        halo_flows(tiny_topo, tiny_topo.compute_nodes[:4], (4, 4), 10.0, 2)


def test_halo_flows_nonperiodic_smaller(tiny_topo):
    nodes = tiny_topo.compute_nodes[:16]
    grid = (8, 4)
    per = halo_flows(tiny_topo, nodes, grid, 100.0, 2, periodic=True)
    non = halo_flows(tiny_topo, nodes, grid, 100.0, 2, periodic=False)
    assert non.total_volume < per.total_volume


def test_allreduce_flows_log_stages(tiny_topo):
    nodes = tiny_topo.compute_nodes[:8]
    fs = allreduce_flows(tiny_topo, nodes, bytes_per_node=64.0)
    # 8 nodes -> 3 stages x 8 participants = 24 node exchanges; local ones
    # (same router) are dropped.
    assert fs.total_volume <= 24 * 64.0
    assert fs.total_volume > 0
    assert allreduce_flows(tiny_topo, nodes[:1], 64.0).total_volume == 0.0


def test_router_alltoall_total(tiny_topo):
    nodes = tiny_topo.compute_nodes[:12]
    fs = router_alltoall_flows(tiny_topo, nodes, total_bytes=1e6)
    assert fs.total_volume == pytest.approx(1e6)
    assert (fs.src != fs.dst).all()


def test_router_alltoall_weights_skew(tiny_topo):
    nodes = tiny_topo.compute_nodes[:12]
    routers = np.unique(tiny_topo.node_router(nodes))
    w = np.ones(len(routers))
    w[0] = 10.0
    fs = router_alltoall_flows(tiny_topo, nodes, 1e6, weights=w)
    hot = fs.volume[(fs.src == routers[0]) | (fs.dst == routers[0])].sum()
    assert hot > 0.5 * fs.total_volume


def test_uniform_random_flows(tiny_topo):
    rng = rng_for("traffic-test")
    nodes = tiny_topo.compute_nodes[:20]
    fs = uniform_random_flows(tiny_topo, nodes, bytes_per_node=1e4, rng=rng)
    assert fs.total_volume <= 20 * 1e4 + 1e-6
    assert fs.total_volume > 0


def test_io_flows_touch_io_routers(tiny_topo):
    nodes = tiny_topo.compute_nodes[:10]
    fs = io_flows(tiny_topo, nodes, bytes_per_sec=1e8, read_fraction=0.25)
    assert fs.total_volume == pytest.approx(1e8)
    io = set(tiny_topo.io_routers.tolist())
    touches_io = np.array([s in io or d in io for s, d in zip(fs.src, fs.dst)])
    assert touches_io.all()
    # Reads + writes split as requested.
    write = fs.volume[np.isin(fs.dst, tiny_topo.io_routers)].sum()
    assert write == pytest.approx(0.75e8, rel=0.01)


def test_io_flows_empty_cases(tiny_topo):
    assert io_flows(tiny_topo, tiny_topo.compute_nodes[:4], 0.0).total_volume == 0


@given(seed=st.integers(0, 500), n_nodes=st.integers(2, 40))
@settings(max_examples=25, deadline=None)
def test_property_flows_on_valid_routers(seed, n_nodes):
    topo = DragonflyTopology.from_preset(TINY)
    rng = np.random.default_rng(seed)
    nodes = rng.choice(topo.compute_nodes, size=n_nodes, replace=False)
    fs = uniform_random_flows(topo, nodes, 1e5, rng)
    assert (fs.src >= 0).all() and (fs.src < topo.num_routers).all()
    assert (fs.dst >= 0).all() and (fs.dst < topo.num_routers).all()
    assert (fs.src != fs.dst).all()
    assert (fs.volume >= 0).all()


def test_aggregated_dense_and_sorted_paths_bitwise_equal():
    """Both aggregation branches sum each pair's volumes in entry order.

    The dense-scatter branch fires when routers^2 is small relative to
    the entry count; a sequential per-pair accumulation reproduces the
    same FP result, so both branches must match it bitwise.
    """
    rng = np.random.default_rng(5)
    for num_routers, n in ((6, 400), (200, 50)):  # dense / sorted branch
        src = rng.integers(0, num_routers, size=n)
        dst = rng.integers(0, num_routers, size=n)
        vol = rng.random(n)
        vol[rng.random(n) < 0.1] = 0.0  # zero-volume pairs must survive
        fs = FlowSet(src, dst, vol, 0.1).aggregated(num_routers)
        acc: dict[int, float] = {}
        for s, d, v in zip(src, dst, vol):
            key = int(s) * num_routers + int(d)
            acc[key] = acc.get(key, 0.0) + float(v)
        keys = sorted(acc)
        np.testing.assert_array_equal(fs.src, np.array(keys) // num_routers)
        np.testing.assert_array_equal(fs.dst, np.array(keys) % num_routers)
        np.testing.assert_array_equal(fs.volume, [acc[k] for k in keys])
