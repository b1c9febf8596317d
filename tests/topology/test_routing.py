"""Routing invariants: path validity, conservation of shares, adaptivity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TINY
from repro.topology.dragonfly import DragonflyTopology, LinkKind
from repro.topology.routing import AdaptiveRouter


def _path_is_connected(topo, flow_links, src, dst):
    """Check a flow's link multiset forms src->dst walks (per path option)."""
    s, d = topo.link_endpoints
    # Weak check suited to multi-path sets: total out-share at src equals
    # total in-share at dst, and every intermediate router is balanced.
    routers = np.zeros(topo.num_routers)
    for lid, share in flow_links:
        routers[s[lid]] -= share
        routers[d[lid]] += share
    assert routers[src] == pytest.approx(-1.0, abs=1e-9)
    assert routers[dst] == pytest.approx(1.0, abs=1e-9)
    mask = np.ones(topo.num_routers, dtype=bool)
    mask[[src, dst]] = False
    np.testing.assert_allclose(routers[mask], 0.0, atol=1e-9)


def _flow_links(incidence, flow_idx):
    sel = incidence.flow == flow_idx
    return list(zip(incidence.link[sel].tolist(), incidence.share[sel].tolist()))


@pytest.mark.parametrize(
    "case",
    ["same_router", "same_row", "same_col", "same_group_2hop", "inter_group"],
)
def test_minimal_path_flow_conservation(tiny_topo, tiny_router, case):
    t = tiny_topo
    src = t.router_id(1, 1, 1)
    if case == "same_router":
        dst = src
    elif case == "same_row":
        dst = t.router_id(1, 1, 2)
    elif case == "same_col":
        dst = t.router_id(1, 2, 1)
    elif case == "same_group_2hop":
        dst = t.router_id(1, 2, 3)
    else:
        dst = t.router_id(4, 2, 3)
    routing = tiny_router.route(np.array([src]), np.array([dst]))
    if case == "same_router":
        assert routing.local_mask[0]
        assert routing.minimal.nnz == 0
        return
    _path_is_connected(t, _flow_links(routing.minimal, 0), int(src), int(dst))


def test_valiant_path_flow_conservation(tiny_topo, tiny_router):
    t = tiny_topo
    src = int(t.router_id(0, 1, 2))
    dst = int(t.router_id(3, 2, 1))
    routing = tiny_router.route(np.array([src]), np.array([dst]))
    _path_is_connected(t, _flow_links(routing.valiant, 0), src, dst)


def test_valiant_intra_group_conservation(tiny_topo, tiny_router):
    t = tiny_topo
    src = int(t.router_id(2, 0, 0))
    dst = int(t.router_id(2, 2, 2))
    routing = tiny_router.route(np.array([src]), np.array([dst]))
    _path_is_connected(t, _flow_links(routing.valiant, 0), src, dst)


def test_minimal_uses_at_most_one_blue_hop(tiny_topo, tiny_router):
    t = tiny_topo
    src = int(t.router_id(0, 0, 0))
    dst = int(t.router_id(5, 2, 2))
    routing = tiny_router.route(np.array([src]), np.array([dst]))
    links = routing.minimal.link
    shares = routing.minimal.share
    blue = t.link_kind[links] == LinkKind.BLUE
    assert shares[blue].sum() == pytest.approx(1.0)


def test_valiant_uses_two_blue_hops_inter_group(tiny_topo, tiny_router):
    t = tiny_topo
    src = int(t.router_id(0, 0, 0))
    dst = int(t.router_id(5, 2, 2))
    routing = tiny_router.route(np.array([src]), np.array([dst]))
    links = routing.valiant.link
    shares = routing.valiant.share
    blue = t.link_kind[links] == LinkKind.BLUE
    assert shares[blue].sum() == pytest.approx(2.0)


def test_valiant_avoids_endpoint_groups_as_intermediate(tiny_topo, tiny_router):
    t = tiny_topo
    rng = np.random.default_rng(7)
    src = rng.integers(0, t.num_routers, size=200)
    dst = rng.integers(0, t.num_routers, size=200)
    sg = src // t.routers_per_group
    dg = dst // t.routers_per_group
    inter = sg != dg
    mids = tiny_router._sample_intermediate_group(sg[inter], dg[inter], 0, None)
    assert (mids != sg[inter]).all()
    assert (mids != dg[inter]).all()
    mids_rng = tiny_router._sample_intermediate_group(sg[inter], dg[inter], 0, rng)
    assert (mids_rng != sg[inter]).all()
    assert (mids_rng != dg[inter]).all()


def test_link_loads_conserve_volume(tiny_topo, tiny_router):
    """Total blue-link load equals total inter-group volume (alpha=1)."""
    t = tiny_topo
    rng = np.random.default_rng(3)
    n = 300
    src = rng.integers(0, t.num_routers, size=n)
    dst = rng.integers(0, t.num_routers, size=n)
    vol = rng.uniform(1e6, 1e8, size=n)
    routing = tiny_router.route(src, dst)
    loads = routing.link_loads(vol, alpha=1.0, num_links=t.num_links)
    blue_load = loads[t.blue_base :].sum()
    inter = (src // t.routers_per_group) != (dst // t.routers_per_group)
    assert blue_load == pytest.approx(vol[inter].sum(), rel=1e-9)


def test_alpha_blends_minimal_and_valiant(tiny_topo, tiny_router):
    t = tiny_topo
    src = np.array([int(t.router_id(0, 0, 0))])
    dst = np.array([int(t.router_id(4, 1, 1))])
    vol = np.array([1e9])
    routing = tiny_router.route(src, dst)
    full_min = routing.link_loads(vol, 1.0, t.num_links)
    full_val = routing.link_loads(vol, 0.0, t.num_links)
    half = routing.link_loads(vol, 0.5, t.num_links)
    np.testing.assert_allclose(half, 0.5 * full_min + 0.5 * full_val)


def test_flow_max_metric(tiny_topo, tiny_router):
    t = tiny_topo
    src = np.array([int(t.router_id(0, 0, 0)), int(t.router_id(1, 0, 0))])
    dst = np.array([int(t.router_id(2, 1, 1)), int(t.router_id(3, 1, 1))])
    routing = tiny_router.route(src, dst)
    metric = np.zeros(t.num_links)
    # Spike exactly one link used by flow 0's minimal path.
    lid = int(routing.minimal.link[routing.minimal.flow == 0][0])
    metric[lid] = 0.9
    mx = routing.minimal.flow_max_metric(metric, 2)
    assert mx[0] == pytest.approx(0.9)
    assert mx[1] == pytest.approx(0.0)


@given(seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_property_all_shares_positive_links_valid(seed):
    t = DragonflyTopology.from_preset(TINY)
    router = AdaptiveRouter(t)
    rng = np.random.default_rng(seed)
    n = 50
    src = rng.integers(0, t.num_routers, size=n)
    dst = rng.integers(0, t.num_routers, size=n)
    routing = router.route(src, dst, rng=rng)
    for inc in (routing.minimal, routing.valiant):
        assert (inc.share > 0).all()
        assert (inc.link >= 0).all() and (inc.link < t.num_links).all()
        assert (inc.flow >= 0).all() and (inc.flow < n).all()


@given(seed=st.integers(0, 1000))
@settings(max_examples=10, deadline=None)
def test_property_minimal_share_sums_to_one_per_fabric_flow(seed):
    """Each non-local flow's minimal share forms a unit src->dst transfer."""
    t = DragonflyTopology.from_preset(TINY)
    router = AdaptiveRouter(t)
    rng = np.random.default_rng(seed)
    n = 30
    src = rng.integers(0, t.num_routers, size=n)
    dst = rng.integers(0, t.num_routers, size=n)
    routing = router.route(src, dst, rng=rng)
    ls, ld = t.link_endpoints
    for f in range(n):
        if routing.local_mask[f]:
            continue
        sel = routing.minimal.flow == f
        bal = np.zeros(t.num_routers)
        np.subtract.at(bal, ls[routing.minimal.link[sel]], routing.minimal.share[sel])
        np.add.at(bal, ld[routing.minimal.link[sel]], routing.minimal.share[sel])
        assert bal[src[f]] == pytest.approx(-1.0, abs=1e-9)
        assert bal[dst[f]] == pytest.approx(1.0, abs=1e-9)
