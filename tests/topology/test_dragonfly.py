"""Structural invariants of the dragonfly topology."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CORI, SMALL, TINY
from repro.topology.dragonfly import DragonflyTopology, LinkKind


def test_link_counts_partition(tiny_topo):
    t = tiny_topo
    assert t.num_links == t.num_green + t.num_black + t.num_blue
    kinds = t.link_kind
    assert (kinds[: t.num_green] == LinkKind.GREEN).all()
    assert (kinds[t.black_base : t.blue_base] == LinkKind.BLACK).all()
    assert (kinds[t.blue_base :] == LinkKind.BLUE).all()


def test_cori_preset_matches_paper():
    """Cori: 34 groups of 96 routers in a 16x6 grid (paper §II-A)."""
    t = DragonflyTopology.from_preset(CORI)
    assert t.groups == 34
    assert t.routers_per_group == 96
    assert t.row_size == 16 and t.col_size == 6
    assert t.num_routers == 34 * 96
    # Every row has 16 routers all-to-all: 16*15 directed green links.
    assert t._green_per_row == 16 * 15
    # Every column has 6 routers all-to-all: 6*5 directed black links.
    assert t._black_per_col == 6 * 5


def test_router_coordinate_roundtrip(tiny_topo):
    t = tiny_topo
    routers = np.arange(t.num_routers)
    g = routers // t.routers_per_group
    ids = t.router_id(g, t.router_row(routers), t.router_pos(routers))
    np.testing.assert_array_equal(ids, routers)


def test_node_router_mapping(tiny_topo):
    t = tiny_topo
    nodes = np.arange(t.num_nodes)
    routers = t.node_router(nodes)
    assert routers.min() == 0
    assert routers.max() == t.num_routers - 1
    counts = np.bincount(routers)
    assert (counts == t.nodes_per_router).all()
    # router_nodes is the inverse.
    for r in (0, t.num_routers // 2, t.num_routers - 1):
        for n in t.router_nodes(r):
            assert t.node_router(int(n)) == r


def test_link_endpoints_consistent_with_kind(tiny_topo):
    t = tiny_topo
    src, dst = t.link_endpoints
    kind = t.link_kind
    sg = src // t.routers_per_group
    dg = dst // t.routers_per_group
    # Green: same group, same row, different pos.
    green = kind == LinkKind.GREEN
    assert (sg[green] == dg[green]).all()
    assert (t.router_row(src[green]) == t.router_row(dst[green])).all()
    assert (t.router_pos(src[green]) != t.router_pos(dst[green])).all()
    # Black: same group, same pos, different row.
    black = kind == LinkKind.BLACK
    assert (sg[black] == dg[black]).all()
    assert (t.router_pos(src[black]) == t.router_pos(dst[black])).all()
    assert (t.router_row(src[black]) != t.router_row(dst[black])).all()
    # Blue: different groups.
    blue = kind == LinkKind.BLUE
    assert (sg[blue] != dg[blue]).all()


def test_no_duplicate_intra_group_links(tiny_topo):
    t = tiny_topo
    src, dst = t.link_endpoints
    intra = t.link_kind != LinkKind.BLUE
    pairs = src[intra] * t.num_routers + dst[intra]
    assert len(np.unique(pairs)) == intra.sum()


def test_green_black_link_id_arithmetic(tiny_topo):
    t = tiny_topo
    src, dst = t.link_endpoints
    # Round-trip a sample of green links through the arithmetic lookup.
    for lid in range(0, t.num_green, 7):
        s, d = int(src[lid]), int(dst[lid])
        got = t.green_link(
            s // t.routers_per_group,
            t.router_row(s),
            t.router_pos(s),
            t.router_pos(d),
        )
        assert int(got) == lid
    for lid in range(t.black_base, t.blue_base, 5):
        s, d = int(src[lid]), int(dst[lid])
        got = t.black_link(
            s // t.routers_per_group,
            t.router_pos(s),
            t.router_row(s),
            t.router_row(d),
        )
        assert int(got) == lid


def test_blue_links_pair_all_groups(tiny_topo):
    t = tiny_topo
    src, dst = t.link_endpoints
    blue = t.link_kind == LinkKind.BLUE
    sg = src[blue] // t.routers_per_group
    dg = dst[blue] // t.routers_per_group
    pairs = set(zip(sg.tolist(), dg.tolist()))
    expect = {(a, b) for a in range(t.groups) for b in range(t.groups) if a != b}
    assert pairs == expect


def test_blue_gateway_owns_blue_link(tiny_topo):
    t = tiny_topo
    src, dst = t.link_endpoints
    for a in range(t.groups):
        for b in range(t.groups):
            if a == b:
                continue
            for c in range(min(2, t.global_multiplicity)):
                lid = int(t.blue_link(a, b, c))
                assert int(src[lid]) == int(t.blue_gateway(a, b, c))
                assert int(dst[lid]) == int(t.blue_gateway(b, a, c))


def test_io_routers_in_io_groups(tiny_topo):
    t = tiny_topo
    groups = t.io_routers // t.routers_per_group
    assert (groups < t.io_groups).all()
    assert (t.router_pos(t.io_routers) == 0).all()
    # compute + io nodes partition all nodes.
    assert len(t.compute_nodes) + len(t.io_nodes) == t.num_nodes
    assert len(np.intersect1d(t.compute_nodes, t.io_nodes)) == 0


def router_digraph(topology):
    """The router graph as a networkx DiGraph, built from the link table
    (networkx is the test-only oracle for graph properties)."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(topology.num_routers))
    src, dst = topology.link_endpoints
    g.add_edges_from(zip(src.tolist(), dst.tolist()))
    return g


def test_router_graph_is_strongly_connected(tiny_topo):
    import networkx as nx

    assert nx.is_strongly_connected(router_digraph(tiny_topo))


def test_network_diameter_is_low(tiny_topo):
    """Dragonfly's raison d'etre: diameter <= 5 router hops (2 intra + blue
    + 2 intra)."""
    import networkx as nx

    g = router_digraph(tiny_topo)
    # Sample eccentricities (full diameter is slow even at tiny scale).
    lengths = nx.single_source_shortest_path_length(g, 0)
    assert max(lengths.values()) <= 5


@given(
    groups=st.integers(2, 8),
    rows=st.integers(2, 6),
    cols=st.integers(2, 5),
    npr=st.integers(1, 4),
)
@settings(max_examples=25, deadline=None)
def test_property_link_count_formula(groups, rows, cols, npr):
    t = DragonflyTopology(groups, rows, cols, nodes_per_router=npr)
    rpg = rows * cols
    assert t.num_green == groups * cols * rows * (rows - 1)
    assert t.num_black == groups * rows * cols * (cols - 1)
    assert t.num_blue == groups * (groups - 1) * t.global_multiplicity
    assert t.num_nodes == groups * rpg * npr
    src, dst = t.link_endpoints
    assert len(src) == t.num_links
    assert (src != dst).all()


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_property_pair_offset_bijection(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 20))
    i = rng.integers(0, n, size=50)
    j = rng.integers(0, n, size=50)
    mask = i != j
    offs = DragonflyTopology._pair_offset(i[mask], j[mask], n)
    assert (offs >= 0).all() and (offs < n * (n - 1) // 1).all()
    # Offsets are unique per (i, j).
    key = i[mask] * n + j[mask]
    uniq_pairs = len(np.unique(key))
    combined = i[mask] * n * n + offs
    assert len(np.unique(combined)) == uniq_pairs


def test_invalid_configs_raise():
    with pytest.raises(ValueError):
        DragonflyTopology(1, 4, 3)
    with pytest.raises(ValueError):
        DragonflyTopology(4, 1, 3)
    with pytest.raises(ValueError):
        DragonflyTopology(4, 4, 3, nodes_per_router=0)
    with pytest.raises(ValueError):
        DragonflyTopology(4, 4, 3, io_groups=9)


def test_describe_mentions_scale():
    t = DragonflyTopology.from_preset(SMALL)
    s = t.describe()
    assert "groups=15" in s and "nodes=2880" in s


def test_preset_lookup_roundtrip():
    assert DragonflyTopology.from_preset("tiny").groups == TINY.groups
