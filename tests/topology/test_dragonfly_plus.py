"""Dragonfly+ geometry invariants: links, node mapping, io pools."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TINY
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.dragonfly_plus import (
    DragonflyPlusTopology,
    PlusLinkKind,
)


@pytest.fixture(scope="module")
def plus_topo() -> DragonflyPlusTopology:
    """4 groups x (3 leaves + 2 spines) x 3 nodes = 36 nodes."""
    return DragonflyPlusTopology(
        groups=4, leaf_size=3, spine_size=2, nodes_per_router=3
    )


def test_counts(plus_topo):
    t = plus_topo
    assert t.routers_per_group == 5
    assert t.num_routers == 20
    assert t.num_nodes == 36
    assert t.num_up == t.num_down == 4 * 3 * 2
    assert t.num_global == 4 * 3 * t.global_multiplicity
    assert t.num_links == t.num_up + t.num_down + t.num_global


def test_link_kind_partition(plus_topo):
    t = plus_topo
    kinds = t.link_kind
    assert (kinds[: t.down_base] == PlusLinkKind.UP).all()
    assert (kinds[t.down_base : t.global_base] == PlusLinkKind.DOWN).all()
    assert (kinds[t.global_base :] == PlusLinkKind.GLOBAL).all()


def test_link_endpoints_valid_and_typed(plus_topo):
    t = plus_topo
    src, dst = t.link_endpoints
    assert (src >= 0).all() and (src < t.num_routers).all()
    assert (dst >= 0).all() and (dst < t.num_routers).all()
    assert (src != dst).all()
    up = slice(0, t.down_base)
    down = slice(t.down_base, t.global_base)
    glob = slice(t.global_base, t.num_links)
    # Up: leaf -> spine, same group.
    assert t.is_leaf(src[up]).all() and not t.is_leaf(dst[up]).any()
    assert (t.router_group(src[up]) == t.router_group(dst[up])).all()
    # Down: spine -> leaf, same group.
    assert not t.is_leaf(src[down]).any() and t.is_leaf(dst[down]).all()
    assert (t.router_group(src[down]) == t.router_group(dst[down])).all()
    # Global: spine -> spine, across groups.
    assert not t.is_leaf(src[glob]).any() and not t.is_leaf(dst[glob]).any()
    assert (t.router_group(src[glob]) != t.router_group(dst[glob])).all()


def test_link_ids_bijective(plus_topo):
    """Every (kind, coordinates) tuple maps to a distinct link id."""
    t = plus_topo
    seen = set()
    for g in range(t.groups):
        for leaf in range(t.leaf_size):
            for spine in range(t.spine_size):
                seen.add(int(t.up_link(g, leaf, spine)))
                seen.add(int(t.down_link(g, spine, leaf)))
    for a in range(t.groups):
        for b in range(t.groups):
            if a == b:
                continue
            for c in range(t.global_multiplicity):
                seen.add(int(t.global_link(a, b, c)))
    assert seen == set(range(t.num_links))


def test_global_gateway_owns_its_link(plus_topo):
    t = plus_topo
    src, dst = t.link_endpoints
    for a in range(t.groups):
        for b in range(t.groups):
            if a == b:
                continue
            for c in range(t.global_multiplicity):
                lid = int(t.global_link(a, b, c))
                assert src[lid] == t.global_gateway(a, b, c)
                assert dst[lid] == t.global_gateway(b, a, c)


def test_node_router_round_trip(plus_topo):
    t = plus_topo
    nodes = np.arange(t.num_nodes)
    routers = t.node_router(nodes)
    # All hosts are leaves, group-major contract holds.
    assert t.is_leaf(routers).all()
    assert (t.router_group(routers) == routers // t.routers_per_group).all()
    for r in range(t.num_routers):
        attached = t.router_nodes(r)
        if t.is_leaf(r):
            assert len(attached) == t.nodes_per_router
            assert (t.node_router(attached) == r).all()
        else:
            assert len(attached) == 0
    # Every node appears exactly once.
    all_nodes = np.concatenate(
        [t.router_nodes(r) for r in range(t.num_routers)]
    )
    assert sorted(all_nodes.tolist()) == list(range(t.num_nodes))


def test_io_pools(plus_topo):
    t = plus_topo
    assert list(t.io_routers) == [int(t.leaf_id(g, 0)) for g in range(t.io_groups)]
    assert len(t.io_nodes) == t.io_groups * t.nodes_per_router
    assert len(t.compute_nodes) + len(t.io_nodes) == t.num_nodes
    assert not np.intersect1d(t.io_nodes, t.compute_nodes).size


def test_single_group():
    t = DragonflyPlusTopology(
        groups=1, leaf_size=2, spine_size=2, nodes_per_router=2
    )
    assert t.num_global == 0
    assert t.num_links == 2 * (2 * 2)
    src, dst = t.link_endpoints
    assert len(src) == t.num_links
    assert len(t.compute_nodes) + len(t.io_nodes) == t.num_nodes == 4


def test_from_preset_capacity_parity():
    """A preset yields the same endpoint count on either topology."""
    plus = DragonflyPlusTopology.from_preset(TINY)
    flat = DragonflyTopology.from_preset(TINY)
    assert plus.num_nodes >= flat.num_nodes
    assert plus.num_nodes - flat.num_nodes < plus.leaf_size * plus.groups
    assert plus.groups == flat.groups
    assert plus.routers_per_group == flat.routers_per_group


def test_describe_and_repr(plus_topo):
    text = plus_topo.describe()
    assert "dragonfly+" in text
    assert "leaf/spine=3/2" in text
    assert repr(plus_topo)


def test_validation():
    with pytest.raises(ValueError):
        DragonflyPlusTopology(groups=0, leaf_size=2, spine_size=2)
    with pytest.raises(ValueError):
        DragonflyPlusTopology(groups=2, leaf_size=0, spine_size=2)
    with pytest.raises(ValueError):
        DragonflyPlusTopology(groups=2, leaf_size=2, spine_size=2, io_groups=3)


def test_leaf_fast_path_matches_general_expansion(plus_topo, monkeypatch):
    """Leaf-only routing (the fast path) emits the exact same incidence
    triplets, in the same order, as the general per-case expansion."""
    from repro.topology.dragonfly_plus import DragonflyPlusRouter
    from repro.topology.routing import GroupRouter

    router = plus_topo.default_router()
    rng = np.random.default_rng(7)
    leaves = np.flatnonzero(plus_topo.is_leaf(np.arange(plus_topo.num_routers)))
    src = rng.choice(leaves, size=300)
    dst = rng.choice(leaves, size=300)
    fast = router.route(src, dst, rng=np.random.default_rng(99))

    monkeypatch.setattr(DragonflyPlusRouter, "_expand", GroupRouter._expand)
    general = router.route(src, dst, rng=np.random.default_rng(99))
    for name in ("minimal", "valiant"):
        fi, gi = getattr(fast, name), getattr(general, name)
        np.testing.assert_array_equal(fi.flow, gi.flow, err_msg=name)
        np.testing.assert_array_equal(fi.link, gi.link, err_msg=name)
        np.testing.assert_array_equal(fi.share, gi.share, err_msg=name)
    np.testing.assert_array_equal(fast.local_mask, general.local_mask)


def test_route_accepts_spine_endpoints(plus_topo):
    """Mixed leaf/spine endpoints fall back to the general expansion."""
    router = plus_topo.default_router()
    spines = np.flatnonzero(
        ~plus_topo.is_leaf(np.arange(plus_topo.num_routers))
    )
    src = np.array([spines[0], 0])
    dst = np.array([1, spines[-1]])
    routing = router.route(src, dst, rng=np.random.default_rng(3))
    assert routing.n_flows == 2
    assert routing.minimal.nnz > 0
