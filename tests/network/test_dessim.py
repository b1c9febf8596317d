"""Packet-level DES: internal invariants + cross-validation of the
aggregate-flow engine (the justification for using the fast model in the
campaign)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TINY
from repro.network.engine import CongestionEngine
from repro.network.traffic import FlowSet, router_alltoall_flows
from repro.topology.dragonfly import DragonflyTopology
from tests.network.dessim import PACKET_BYTES, PacketSimulator


@pytest.fixture(scope="module")
def topo():
    return DragonflyTopology.from_preset(TINY)


@pytest.fixture(scope="module")
def sim(topo):
    return PacketSimulator(topo)


def _small_flows(topo, scale=1.0, seed=0):
    rng = np.random.default_rng(seed)
    nodes = rng.choice(topo.compute_nodes, size=24, replace=False)
    return router_alltoall_flows(topo, nodes, 2e9 * scale)


# --------------------------------------------------------------------- #
# route construction
# --------------------------------------------------------------------- #


def test_routes_are_connected(topo, sim):
    src_l, dst_l = topo.link_endpoints
    rng = np.random.default_rng(1)
    for _ in range(60):
        a = int(rng.integers(0, topo.num_routers))
        b = int(rng.integers(0, topo.num_routers))
        for route in (sim.minimal_route(a, b, rng), sim.valiant_route(a, b, rng)):
            here = a
            for link in route:
                assert int(src_l[link]) == here
                here = int(dst_l[link])
            assert here == b


def test_minimal_route_hop_bound(topo, sim):
    rng = np.random.default_rng(2)
    for _ in range(60):
        a = int(rng.integers(0, topo.num_routers))
        b = int(rng.integers(0, topo.num_routers))
        assert len(sim.minimal_route(a, b, rng)) <= 5


def test_valiant_route_detours(topo, sim):
    rng = np.random.default_rng(3)
    a = int(topo.router_id(0, 0, 0))
    b = int(topo.router_id(3, 1, 1))
    blue = topo.link_kind
    from repro.topology.dragonfly import LinkKind

    route = sim.valiant_route(a, b, rng)
    n_blue = sum(1 for link in route if blue[link] == LinkKind.BLUE)
    assert n_blue == 2  # via an intermediate group


# --------------------------------------------------------------------- #
# simulation invariants
# --------------------------------------------------------------------- #


def test_packet_conservation(topo, sim):
    flows = _small_flows(topo)
    res = sim.run(flows, horizon=0.004, rng=np.random.default_rng(4))
    assert res.flow_packets.sum() > 0
    # Every injected packet is delivered (the sim drains its heap).
    expect = flows.volume.sum() * res.horizon / PACKET_BYTES
    assert res.flow_packets.sum() == pytest.approx(expect, rel=0.25)


def test_latency_stretch_grows_with_load(topo, sim):
    rng = np.random.default_rng(5)
    lo = sim.run(_small_flows(topo, 0.5), horizon=0.004, rng=rng)
    hi = sim.run(_small_flows(topo, 12.0), horizon=0.004, rng=rng)
    w_lo = lo.flow_packets / max(lo.flow_packets.sum(), 1)
    w_hi = hi.flow_packets / max(hi.flow_packets.sum(), 1)
    assert (hi.flow_stretch() @ w_hi) > (lo.flow_stretch() @ w_lo)
    assert (lo.flow_stretch() >= 1.0 - 1e-9).all()


def test_utilisation_bounded(topo, sim):
    res = sim.run(_small_flows(topo, 8.0), horizon=0.004, rng=np.random.default_rng(6))
    util = res.link_stats.utilisation(res.horizon)
    assert (util >= 0).all()
    # A work-conserving FIFO server can lag slightly past the horizon but
    # never by more than the backlog allows; loads here keep it near <= 1.
    assert util.max() < 2.0


def test_ugal_offloads_under_congestion(topo, sim):
    """Adaptive packets abandon the minimal path when it saturates."""
    # Hot pair: all routers of group 0 -> group 3, heavy volume.
    rpg = topo.routers_per_group
    src = np.arange(rpg)
    dst = src + 3 * rpg
    hot = FlowSet(src, dst, np.full(rpg, 2.5e9))
    rng = np.random.default_rng(7)
    res_adaptive = sim.run(hot, horizon=0.01, rng=rng, adaptive=True)
    frac = float(
        (res_adaptive.minimal_fraction * res_adaptive.flow_packets).sum()
        / res_adaptive.flow_packets.sum()
    )
    assert frac < 0.999  # some packets detour
    # And under light load nearly everything stays minimal.
    light = FlowSet(src, dst, np.full(rpg, 1e7))
    res_light = sim.run(light, horizon=0.01, rng=np.random.default_rng(8))
    frac_light = float(
        (res_light.minimal_fraction * res_light.flow_packets).sum()
        / max(res_light.flow_packets.sum(), 1)
    )
    assert frac_light > frac


def test_max_packets_guard(topo, sim):
    flows = _small_flows(topo, 100.0)
    with pytest.raises(ValueError):
        sim.run(flows, horizon=10.0, max_packets=100)


# --------------------------------------------------------------------- #
# cross-validation against the aggregate-flow engine
# --------------------------------------------------------------------- #


def test_engine_and_des_agree_on_link_utilisation(topo, sim):
    """The headline validation: per-link utilisation from the analytic
    engine correlates strongly with the packet simulation's busy time."""
    flows = _small_flows(topo, 4.0)
    engine = CongestionEngine(topo)
    state = engine.solve([engine.route(flows)])
    a_util = state.link_util

    res = sim.run(flows, horizon=0.008, rng=np.random.default_rng(9))
    d_util = res.link_stats.utilisation(res.horizon)

    used = (a_util > 1e-6) | (d_util > 1e-6)
    assert used.sum() > 50
    r = float(np.corrcoef(a_util[used], d_util[used])[0, 1])
    assert r > 0.7
    # Totals agree too (same offered load).
    assert d_util.sum() == pytest.approx(a_util.sum(), rel=0.35)


def test_engine_and_des_agree_on_slowdown_direction(topo, sim):
    """When the engine says a traffic mix is slower, the DES agrees."""
    engine = CongestionEngine(topo)
    results = {}
    for label, scale in (("lo", 0.5), ("hi", 10.0)):
        flows = _small_flows(topo, scale)
        state = engine.solve([engine.route(flows)])
        eng_s, _ = state.metrics[0].volume_weighted(flows.volume)
        res = sim.run(flows, horizon=0.004, rng=np.random.default_rng(10))
        w = res.flow_packets / max(res.flow_packets.sum(), 1)
        results[label] = (eng_s, float(res.flow_stretch() @ w))
    assert results["hi"][0] > results["lo"][0]  # engine direction
    assert results["hi"][1] > results["lo"][1]  # DES direction
